package wal

import (
	"fmt"
	"io"
	"os"
)

// CrashFile wraps a log's backing file and kills the writer at a chosen
// byte offset: writes that would extend the file past Limit are applied
// only up to Limit and then fail with ErrCrash, and every later write or
// sync fails too. Reads are unaffected, so the recovery pass that follows
// sees exactly the prefix a real crash would have left. This is the WAL
// counterpart of internal/faultfile's read-side injection: faultfile
// tears pages on the way in, CrashFile tears the log on the way out.
type CrashFile struct {
	f       *os.File
	limit   int64
	crashed bool
}

// NewCrashFile wraps f so cumulative file content stops growing at limit
// bytes.
func NewCrashFile(f *os.File, limit int64) *CrashFile {
	return &CrashFile{f: f, limit: limit}
}

// Crashed reports whether the injected crash has fired.
func (c *CrashFile) Crashed() bool { return c.crashed }

// WriteAt applies the write up to the crash limit, then fails.
func (c *CrashFile) WriteAt(p []byte, off int64) (int, error) {
	if c.crashed || off >= c.limit {
		c.crashed = true
		return 0, ErrCrash
	}
	if off+int64(len(p)) > c.limit {
		n, _ := c.f.WriteAt(p[:c.limit-off], off)
		c.crashed = true
		return n, ErrCrash
	}
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

// ScanFile reads the log at path without opening it for writing and
// delivers every valid record to fn — the programmatic face of DumpFile,
// used by fsck. payload ≤ 0 means "trust the header's declared payload".
// It returns the scan summary and the declared payload. A file too short
// to hold a header yields an empty ScanInfo, not an error.
func ScanFile(path string, payload int, fn func(Rec) error) (*ScanInfo, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if st.Size() < HeaderSize {
		return &ScanInfo{End: st.Size(), Torn: 0}, 0, nil
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, 0, err
	}
	if string(hdr[:4]) != walMagic {
		return nil, 0, fmt.Errorf("wal: %s: bad magic", path)
	}
	declared := int(le32(hdr[8:12]))
	if payload <= 0 {
		payload = declared
	}
	l := &Log{f: roFile{f}, path: path, payload: payload}
	info, err := l.Scan(fn)
	return info, declared, err
}

// DumpFile pretty-prints every valid record of the log at path — the
// engine behind `nnc wal-dump`. It opens the file read-only and
// reports the torn tail, if any, without truncating it.
func DumpFile(path string, payload int, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < HeaderSize {
		fmt.Fprintf(w, "%s: empty or torn header (%d bytes)\n", path, st.Size())
		return nil
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return err
	}
	if string(hdr[:4]) != walMagic {
		return fmt.Errorf("wal: %s: bad magic", path)
	}
	declared := int(le32(hdr[8:12]))
	if payload <= 0 {
		payload = declared
	}
	fmt.Fprintf(w, "%s: wal v%d, page payload %d, %d bytes\n", path, hdr[4], declared, st.Size())
	l := &Log{f: roFile{f}, path: path, payload: payload}
	info, err := l.Scan(func(r Rec) error {
		switch r.Type {
		case RecPageImage:
			fmt.Fprintf(w, "  @%-8d tx %-6d page-image  page %d (%s)\n", r.Off, r.TxID, r.Page, r.PType)
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
	if info.Torn > 0 {
		fmt.Fprintf(w, ", TORN TAIL: %d bytes", info.Torn)
	}
	fmt.Fprintln(w)
	return nil
}

// roFile adapts a read-only *os.File to the File interface for scans.
type roFile struct{ *os.File }

func (roFile) WriteAt(p []byte, off int64) (int, error) { return 0, os.ErrPermission }
func (roFile) Truncate(int64) error                     { return os.ErrPermission }
func (roFile) Sync() error                              { return nil }
