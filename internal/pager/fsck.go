package pager

// Offline integrity scan: the engine behind `nnc fsck`. The scan
// deliberately bypasses PageFile so it has no side effects — no retry, no
// quarantine, no counters — and reads the raw image exactly as it sits on
// disk.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"spatialdom/internal/faults"
)

// FsckPage is one page that failed verification.
type FsckPage struct {
	ID   PageID
	Type PageType // the type the trailer declares (untrusted on mismatch)
	Err  error
}

// FsckReport summarizes an offline scan of a page file.
type FsckReport struct {
	Path     string
	Version  int
	PageSize int // physical
	Payload  int
	Pages    int // allocated pages including the header page
	// ByType counts verified pages per trailer type. Legacy files report
	// everything under PageUnknown.
	ByType map[PageType]int
	// Corrupt lists every page whose checksum did not match, in id order.
	Corrupt []FsckPage
	// Legacy is set for format v0 files, whose pages carry no checksums;
	// the scan can only check geometry, not integrity.
	Legacy bool
}

// Clean reports whether the scan found no corruption.
func (r *FsckReport) Clean() bool { return len(r.Corrupt) == 0 }

// Types returns the page types present, sorted, for stable report output.
func (r *FsckReport) Types() []PageType {
	ts := make([]PageType, 0, len(r.ByType))
	for t := range r.ByType {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// Fsck scans the page file at path, verifying every page checksum, and
// returns a per-page-type report. It opens the file read-only and never
// mutates anything, so it is safe to run against a file a server is
// serving from.
func Fsck(path string) (*FsckReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, 16)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("pager: fsck: reading header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("fsck: %w", ErrBadMagic)
	}
	ps := int(le32(hdr[4:8]))
	pages := int(le32(hdr[8:12]))
	version := int(hdr[12])
	const maxPageSize = 1 << 24
	if ps < 64 || ps > maxPageSize {
		return nil, fmt.Errorf("pager: fsck: implausible page size %d", ps)
	}
	if pages < 1 {
		return nil, fmt.Errorf("fsck: %w: page count %d", ErrBadGeometry, pages)
	}
	if version > FormatVersion {
		return nil, fmt.Errorf("pager: fsck: format version %d is newer than supported %d", version, FormatVersion)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if int64(pages)*int64(ps) > st.Size() {
		return nil, fmt.Errorf("pager: fsck: header declares %d pages of %d bytes but file has only %d bytes",
			pages, ps, st.Size())
	}

	rep := &FsckReport{
		Path:     path,
		Version:  version,
		PageSize: ps,
		Payload:  ps,
		Pages:    pages,
		ByType:   make(map[PageType]int),
	}
	if version == 0 {
		rep.Legacy = true
		rep.ByType[PageUnknown] = pages
		return rep, nil
	}
	rep.Payload = ps - trailerSize

	phys := make([]byte, ps)
	for id := 0; id < pages; id++ {
		if _, err := f.ReadAt(phys, int64(id)*int64(ps)); err != nil {
			rep.Corrupt = append(rep.Corrupt, FsckPage{
				ID: PageID(id), Type: PageUnknown,
				Err: fmt.Errorf("read: %w", err),
			})
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				continue
			}
			return rep, err
		}
		tr := phys[rep.Payload:]
		declared := PageType(tr[5])
		want := le32(tr[0:4])
		got := pageCRC(phys[:rep.Payload], tr[4], tr[5])
		if got != want {
			rep.Corrupt = append(rep.Corrupt, FsckPage{
				ID: PageID(id), Type: declared,
				Err: fmt.Errorf("%w: crc %08x != stored %08x", faults.ErrChecksum, got, want),
			})
			continue
		}
		rep.ByType[declared]++
	}
	return rep, nil
}
