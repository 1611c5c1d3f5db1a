package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// CrashFile wraps a log's backing file and kills the writer after a
// budget of written bytes: the write that would exceed it lands only up to
// the budget and then fails with ErrCrash, and every later write, truncate
// or sync fails too. Reads are unaffected, so the recovery pass that
// follows sees exactly the bytes a real crash would have left — wherever
// in the file the writes went, so a crash can tear an append into
// recycled space or a generation's header write as well as an append past
// the end. This is the WAL counterpart of internal/faultfile's read-side
// injection: faultfile tears pages on the way in, CrashFile tears the log
// on the way out.
type CrashFile struct {
	f       *os.File
	budget  int64
	crashed bool
}

// NewCrashFile wraps f so the writer dies once budget more bytes have been
// written through it.
func NewCrashFile(f *os.File, budget int64) *CrashFile {
	return &CrashFile{f: f, budget: budget}
}

// Crashed reports whether the injected crash has fired.
func (c *CrashFile) Crashed() bool { return c.crashed }

// WriteAt applies the write up to the remaining budget, then fails.
func (c *CrashFile) WriteAt(p []byte, off int64) (int, error) {
	if c.crashed || c.budget <= 0 {
		c.crashed = true
		return 0, ErrCrash
	}
	if int64(len(p)) > c.budget {
		n, _ := c.f.WriteAt(p[:c.budget], off)
		c.crashed = true
		return n, ErrCrash
	}
	c.budget -= int64(len(p))
	return c.f.WriteAt(p, off)
}

// ReadAt reads through to the real file.
func (c *CrashFile) ReadAt(p []byte, off int64) (int, error) { return c.f.ReadAt(p, off) }

// Truncate fails once crashed (the process is "dead").
func (c *CrashFile) Truncate(size int64) error {
	if c.crashed {
		return ErrCrash
	}
	return c.f.Truncate(size)
}

// Sync fails once crashed.
func (c *CrashFile) Sync() error {
	if c.crashed {
		return ErrCrash
	}
	return c.f.Sync()
}

// Stat exposes the real file's metadata (scans need the size).
func (c *CrashFile) Stat() (os.FileInfo, error) { return c.f.Stat() }

// Close closes the real file.
func (c *CrashFile) Close() error { return c.f.Close() }

// openRead opens the log at path read-only for a scan: a Log over the
// file, positioned nowhere, and its header. payload <= 0 means "trust the
// header's declared payload". A file too short to hold a header yields a
// nil Log and no error.
func openRead(path string, payload int) (*Log, header, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, header{}, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, header{}, 0, err
	}
	if st.Size() < HeaderSize {
		f.Close()
		return nil, header{}, st.Size(), nil
	}
	h, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, header{}, 0, fmt.Errorf("%s: %w", path, err)
	}
	if payload <= 0 {
		payload = h.payload
	}
	return &Log{f: roFile{f}, path: path, payload: payload, gen: h.gen}, h, st.Size(), nil
}

// ScanFile reads the log at path without opening it for writing and
// delivers every valid record to fn — the programmatic face of DumpFile,
// used by fsck. payload ≤ 0 means "trust the header's declared payload".
// It returns the scan summary and the declared payload. A file too short
// to hold a header yields an empty ScanInfo, not an error.
func ScanFile(path string, payload int, fn func(Rec) error) (*ScanInfo, int, error) {
	l, h, size, err := openRead(path, payload)
	if err != nil {
		return nil, 0, err
	}
	if l == nil {
		return &ScanInfo{End: size}, 0, nil
	}
	defer l.Close()
	info, err := l.Scan(fn)
	return info, h.payload, err
}

// errFound stops Pending's scan at the first record.
var errFound = errors.New("wal: a record")

// Pending reports whether the log at path holds a valid record of its
// current generation: transactions the page file may not hold yet. A log
// that holds only its header, or only bytes older generations and torn
// appends left, holds none.
func Pending(path string) (bool, error) {
	_, _, err := ScanFile(path, 0, func(Rec) error { return errFound })
	if errors.Is(err, errFound) {
		return true, nil
	}
	return false, err
}

// DumpFile pretty-prints every valid record of the log at path — the
// engine behind `nnc wal-dump`. It opens the file read-only and says what
// lies past the last valid record — a torn append, or bytes an older
// generation left — without touching it.
func DumpFile(path string, payload int, w io.Writer) error {
	l, h, size, err := openRead(path, payload)
	if err != nil {
		return err
	}
	if l == nil {
		fmt.Fprintf(w, "%s: empty or torn header (%d bytes)\n", path, size)
		return nil
	}
	defer l.Close()
	fmt.Fprintf(w, "%s: wal v%d, generation %d, page payload %d, %d bytes\n", path, h.version, h.gen, h.payload, size)
	info, err := l.Scan(func(r Rec) error {
		switch r.Type {
		case RecPageImage:
			fmt.Fprintf(w, "  @%-8d tx %-6d page-image  page %d (%s), %d bytes logged\n", r.Off, r.TxID, r.Page, r.PType, len(r.Image))
		case RecCommit:
			fmt.Fprintf(w, "  @%-8d tx %-6d commit\n", r.Off, r.TxID)
		case RecCheckpoint:
			fmt.Fprintf(w, "  @%-8d tx %-6d checkpoint\n", r.Off, r.TxID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d records, valid through %d", info.Records, info.End)
	switch {
	case info.Torn > 0:
		fmt.Fprintf(w, ", TORN TAIL: %d bytes", info.Torn)
	case info.Stale > 0:
		fmt.Fprintf(w, ", then %d bytes of older generations", info.Stale)
	}
	fmt.Fprintln(w)
	return nil
}

// roFile adapts a read-only *os.File to the File interface for scans.
type roFile struct{ *os.File }

func (roFile) WriteAt(p []byte, off int64) (int, error) { return 0, os.ErrPermission }
func (roFile) Truncate(int64) error                     { return os.ErrPermission }
func (roFile) Sync() error                              { return nil }
