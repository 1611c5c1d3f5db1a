// Package walcase is the seeded-violation corpus for the wal-order check.
// The log type's Append* methods stand in for the WAL's commit protocol
// (the check keys on the method names plus the defining package's path,
// which contains "walorder"). Regression notes: the image-after-commit and
// commit-without-sync shapes mirror near-misses caught while writing the
// mutable index's commitTx and the WAL's AppendCommit tail.
package walcase

import "errors"

const (
	RecPageImage  = 1
	RecCommit     = 2
	RecCheckpoint = 3
)

var errBoom = errors.New("walcase: boom")

type file struct{}

func (file) Sync() error            { return nil }
func (file) Truncate(n int64) error { return nil }

type log struct {
	f file
}

func (l *log) appendRecord(rec int, tx uint64) error     { return nil }
func (l *log) AppendPageImage(tx uint64, p []byte) error { return nil }
func (l *log) FlushImages() error                        { return nil }
func (l *log) AppendCommit(tx uint64) error              { return nil }
func (l *log) AppendCheckpoint(tx uint64) error          { return nil }
func (l *log) Reset() error                              { return nil }

// CommitClean is the canonical protocol shape: images, their one write,
// then the commit record (which syncs internally), early error returns
// exempt.
func (l *log) CommitClean(tx uint64, pages [][]byte) error {
	for _, p := range pages {
		if err := l.AppendPageImage(tx, p); err != nil {
			return err
		}
	}
	if err := l.FlushImages(); err != nil {
		return err
	}
	if err := l.AppendCommit(tx); err != nil {
		return err
	}
	return nil
}

// CommitUnflushed leaves the image write to AppendCommit: a failure of it
// comes back from the call whose errors mean "durability indeterminate".
func (l *log) CommitUnflushed(tx uint64, p []byte) error {
	if err := l.AppendPageImage(tx, p); err != nil {
		return err
	}
	return l.AppendCommit(tx) //wantlint wal-order: not preceded by FlushImages
}

// ImageAfterCommit appends a page image after the transaction's commit
// record: the image belongs to no committed transaction.
func (l *log) ImageAfterCommit(tx uint64, p []byte) error {
	if err := l.FlushImages(); err != nil {
		return err
	}
	if err := l.AppendCommit(tx); err != nil {
		return err
	}
	if err := l.AppendPageImage(tx, p); err != nil { //wantlint wal-order: page image appended after
		return err
	}
	return nil
}

// CheckpointBeforeCommit truncates the pending transaction's images out
// of the log before their commit record exists.
func (l *log) CheckpointBeforeCommit(tx uint64, p []byte) error {
	if err := l.AppendPageImage(tx, p); err != nil {
		return err
	}
	if err := l.AppendCheckpoint(tx); err != nil { //wantlint wal-order: checkpoint record appended while page images await
		return err
	}
	if err := l.FlushImages(); err != nil {
		return err
	}
	return l.AppendCommit(tx)
}

// ResetWithPendingImages discards a staged transaction.
func (l *log) ResetWithPendingImages(tx uint64, p []byte) error {
	if err := l.AppendPageImage(tx, p); err != nil {
		return err
	}
	if err := l.Reset(); err != nil { //wantlint wal-order: log truncated while page images await
		return err
	}
	if err := l.FlushImages(); err != nil {
		return err
	}
	return l.AppendCommit(tx)
}

// ImagesNeverCommitted stages images and then reports success without a
// commit record: the transaction is never durable.
func (l *log) ImagesNeverCommitted(tx uint64, p []byte) error {
	if err := l.AppendPageImage(tx, p); err != nil {
		return err
	}
	return nil //wantlint wal-order: no commit record on this success path
}

// CommitRecordSynced is the wal-internal shape: raw commit record, then
// the fsync on the success tail.
func (l *log) CommitRecordSynced(tx uint64) error {
	if err := l.appendRecord(RecCommit, tx); err != nil {
		return err
	}
	return l.f.Sync()
}

// CommitRecordNoSync reports success with the commit record still in the
// OS page cache.
func (l *log) CommitRecordNoSync(tx uint64) error {
	if err := l.appendRecord(RecCommit, tx); err != nil {
		return err
	}
	return nil //wantlint wal-order: log is not synced on this success path
}

// CheckpointRecordNoSync: the checkpoint record carries the same fsync
// obligation as a commit.
func (l *log) CheckpointRecordNoSync(tx uint64) error {
	if err := l.appendRecord(RecCheckpoint, tx); err != nil {
		return err
	}
	return nil //wantlint wal-order: log is not synced on this success path
}

// ExplicitSyncStatement discharges the obligation before the return.
func (l *log) ExplicitSyncStatement(tx uint64) error {
	if err := l.appendRecord(RecCommit, tx); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return nil
}

// AbortPathExempt: an error return never promised durability, so pending
// state on it is not a finding.
func (l *log) AbortPathExempt(tx uint64, p []byte, bad bool) error {
	if err := l.AppendPageImage(tx, p); err != nil {
		return err
	}
	if bad {
		return errBoom
	}
	if err := l.FlushImages(); err != nil {
		return err
	}
	return l.AppendCommit(tx)
}

// PageImageRecordOnly: non-commit record types carry no sync obligation.
func (l *log) PageImageRecordOnly(tx uint64) error {
	if err := l.appendRecord(RecPageImage, tx); err != nil {
		return err
	}
	return nil
}

// ImagesNeverCommittedInLabeledLoop is ImagesNeverCommitted behind a
// label: the success return inside the loop skips the commit record.
func (l *log) ImagesNeverCommittedInLabeledLoop(tx uint64, pages [][]byte) error {
outer:
	for _, p := range pages {
		if err := l.AppendPageImage(tx, p); err != nil {
			return err
		}
		if len(p) == 0 {
			continue outer
		}
		return nil //wantlint wal-order: no commit record on this success path
	}
	if err := l.FlushImages(); err != nil {
		return err
	}
	return l.AppendCommit(tx)
}
