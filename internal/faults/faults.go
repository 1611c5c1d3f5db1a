// Package faults is the typed error taxonomy and retry discipline of the
// fault-tolerant disk read path. The paper's candidate sets are computed
// from MBR bounds decoded out of disk pages, so an undetected corrupt page
// is not a crash bug but a wrong-answer bug: every storage failure must be
// detected, classified, and either healed (transient) or surfaced as a
// flagged degradation (persistent) — never swallowed.
//
// The taxonomy separates two regimes:
//
//   - Transient failures (ErrTransientIO, a recoverable ErrShortRead):
//     retried with capped exponential backoff and deterministic jitter,
//     honoring the caller's context during every sleep.
//   - Integrity failures (ErrChecksum, ErrTornPage, a persistent
//     ErrShortRead): never retried blindly — the pager performs exactly one
//     re-read to distinguish an in-flight write from stable corruption,
//     then quarantines the page. Quarantined data reports ErrUnavailable,
//     which the query engine turns into a flagged partial result instead of
//     a wrong answer.
//
// The package is imported by pager (which raises these errors), core
// (which degrades on ErrUnavailable) and server (which maps degradation to
// HTTP); it depends only on the standard library.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"syscall"
	"time"
)

// Sentinel error classes, matched with errors.Is through any number of
// wrapping layers (PageError included).
var (
	// ErrChecksum: a page's stored CRC32C does not match its contents and
	// a re-read returned the same bytes — stable on-disk corruption.
	ErrChecksum = errors.New("faults: page checksum mismatch")
	// ErrTornPage: a page failed verification and a re-read returned
	// different bytes — a torn or in-flight write was observed.
	ErrTornPage = errors.New("faults: torn page")
	// ErrShortRead: the storage returned fewer bytes than a full page.
	ErrShortRead = errors.New("faults: short page read")
	// ErrTransientIO: an I/O error of a class worth retrying (EIO, EINTR,
	// EAGAIN and friends).
	ErrTransientIO = errors.New("faults: transient I/O error")
	// ErrUnavailable: the data is quarantined or otherwise unreadable; the
	// caller should degrade (skip the subtree and flag the result), not
	// abort. Every quarantining PageError matches it.
	ErrUnavailable = errors.New("faults: data unavailable")
)

// Class partitions raw I/O errors for the retry loop.
type Class int

const (
	// ClassPermanent: not worth retrying (bad descriptor, closed file,
	// permission, out-of-range...).
	ClassPermanent Class = iota
	// ClassTransient: retry with backoff.
	ClassTransient
	// ClassShortRead: the read stopped early; one immediate re-read
	// distinguishes a racing append/truncation from stable damage.
	ClassShortRead
)

// Classify maps a raw error from the storage layer to its retry class.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassPermanent
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF), errors.Is(err, ErrShortRead):
		return ClassShortRead
	case errors.Is(err, ErrTransientIO),
		errors.Is(err, syscall.EIO),
		errors.Is(err, syscall.EINTR),
		errors.Is(err, syscall.EAGAIN),
		errors.Is(err, syscall.EBUSY),
		errors.Is(err, syscall.ETIMEDOUT):
		return ClassTransient
	default:
		return ClassPermanent
	}
}

// PageError is a storage failure pinned to one page. It unwraps to its
// class sentinel (so errors.Is(err, ErrChecksum) etc. work) and, when the
// page was quarantined, additionally matches ErrUnavailable.
type PageError struct {
	Op   string // "read", "write", "verify"
	Page uint32
	Err  error
	// Quarantined marks the page as withdrawn from service; the error then
	// matches ErrUnavailable and callers should degrade instead of abort.
	Quarantined bool
}

// Error formats the failure with its page id.
func (e *PageError) Error() string {
	if e.Quarantined {
		return fmt.Sprintf("faults: %s page %d (quarantined): %v", e.Op, e.Page, e.Err)
	}
	return fmt.Sprintf("faults: %s page %d: %v", e.Op, e.Page, e.Err)
}

// Unwrap exposes the class sentinel to errors.Is/As.
func (e *PageError) Unwrap() error { return e.Err }

// Is lets a quarantining PageError match ErrUnavailable in addition to the
// wrapped class.
func (e *PageError) Is(target error) bool {
	return target == ErrUnavailable && e.Quarantined
}

// IsUnavailable reports whether err represents quarantined/unreadable data
// the caller should degrade around rather than abort on.
func IsUnavailable(err error) bool { return errors.Is(err, ErrUnavailable) }

// Stats are the cumulative fault counters of one page file, exposed
// through the pager and the server's health endpoints. All fields are
// monotonic.
type Stats struct {
	// ChecksumFailures counts verification mismatches (first reads;
	// includes those later healed by the re-read).
	ChecksumFailures int64 `json:"checksum_failures"`
	// TornPages counts re-reads that returned different bytes.
	TornPages int64 `json:"torn_pages"`
	// ShortReads counts reads that returned fewer bytes than a page.
	ShortReads int64 `json:"short_reads"`
	// TransientRetries counts backoff retries of transient I/O errors.
	TransientRetries int64 `json:"transient_retries"`
	// RecoveredReads counts reads that failed at least once and then
	// succeeded (transient healed, or a torn write that settled).
	RecoveredReads int64 `json:"recovered_reads"`
	// QuarantinedPages is the number of pages withdrawn from service.
	QuarantinedPages int64 `json:"quarantined_pages"`
}

// Retry is a capped exponential backoff policy. The zero value disables
// retries; DefaultRetry is the pager's default.
type Retry struct {
	// Max is the number of retries after the initial attempt.
	Max int
	// Base is the backoff before the first retry; each further retry
	// doubles it up to Cap.
	Base time.Duration
	// Cap bounds a single backoff.
	Cap time.Duration
}

// DefaultRetry is tuned for page-sized reads: sub-millisecond first
// backoff, three retries, capped at 5ms so a failing device cannot stall a
// query for long.
var DefaultRetry = Retry{Max: 3, Base: 200 * time.Microsecond, Cap: 5 * time.Millisecond}

// Backoff returns the sleep before retry attempt (0-based), jittered
// deterministically from salt — no global rand, so fault-injection runs
// are reproducible. The result lies in [d/2, d] for d = min(Base<<attempt,
// Cap).
func (r Retry) Backoff(attempt int, salt uint64) time.Duration {
	if r.Base <= 0 {
		return 0
	}
	d := r.Base
	for i := 0; i < attempt && d < r.Cap; i++ {
		d <<= 1
	}
	if r.Cap > 0 && d > r.Cap {
		d = r.Cap
	}
	h := splitmix64(salt ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + h%(half+1))
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash for
// deterministic jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sleep blocks for d or until ctx is done, whichever comes first, and
// returns ctx.Err() in the latter case. It is the ctx-aware sleep every
// retry loop must use in place of time.Sleep (enforced by nnclint's
// ctx-flow check).
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
