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
	// ByType counts verified pages per trailer type.
	ByType map[PageType]int
	// Corrupt lists every page that failed verification, in id order: a
	// checksum that did not match, or the header page of a file whose
	// version byte is not FormatVersion.
	Corrupt []FsckPage
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
	ps, pages, version, err := readHeader(f, f)
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}

	rep := &FsckReport{
		Path:     path,
		Version:  int(version),
		PageSize: ps,
		Payload:  ps - trailerSize,
		Pages:    pages,
		ByType:   make(map[PageType]int),
	}
	first := 0
	if version != FormatVersion {
		// Open refuses this file. Its other pages are still checked against
		// the one format there is, so the report says how much of it holds.
		rep.Corrupt = append(rep.Corrupt, FsckPage{
			ID: 0, Type: PageHeader,
			Err: fmt.Errorf("%w %d (this build reads and writes %d)", ErrBadVersion, version, FormatVersion),
		})
		first = 1
	}

	phys := make([]byte, ps)
	for id := first; id < pages; id++ {
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
