package spatialdom

import (
	"context"

	"spatialdom/internal/core"
	"spatialdom/internal/diskindex"
)

// DiskIndex is the disk-resident form of the index: objects and the global
// R-tree live in a page file (4096-byte pages) behind a sharded LRU buffer
// pool, the one cache a search reads through. An object whose MBR survives
// pruning is read from its record and decoded for that search alone, so
// the pages a search touches depend on the query and the file alone, and
// every search reports its exact I/O profile. All search methods are safe
// to call from any number of goroutines — each search runs over a private
// page lease, so concurrent results (candidates, order, Result.IO) are
// identical to serial execution. See internal/diskindex.
type DiskIndex struct {
	inner *diskindex.Index
}

// DiskResult is a disk search outcome.
type DiskResult = diskindex.Result

// DiskIOStats reports buffer-pool and page-file counters.
type DiskIOStats = diskindex.IOStats

// BuildDiskIndex creates (or truncates) a page file at path and writes the
// objects and their R-tree into it, dropping any WAL an earlier file at
// path left. frames bounds the buffer pool (each frame holds one 4096-byte
// page). An empty object set is refused before the file is touched.
func BuildDiskIndex(path string, objs []*Object, frames int) (*DiskIndex, error) {
	idx, err := diskindex.CreateFile(path, objs, frames)
	if err != nil {
		return nil, err
	}
	return &DiskIndex{inner: idx}, nil
}

// OpenDiskIndex reattaches read-only to a page file previously written by
// BuildDiskIndex. A file a mutable session left with a non-empty WAL is
// refused rather than served from its pre-WAL state.
func OpenDiskIndex(path string, frames int) (*DiskIndex, error) {
	idx, err := diskindex.OpenFile(path, frames)
	if err != nil {
		return nil, err
	}
	return &DiskIndex{inner: idx}, nil
}

// Len returns the number of indexed objects.
func (d *DiskIndex) Len() int { return d.inner.Len() }

// Dim returns the dimensionality.
func (d *DiskIndex) Dim() int { return d.inner.Dim() }

// Search is Algorithm 1 as published against the disk structures: every
// filter enabled, k = 1, no cancellation — shorthand for SearchKCtx.
func (d *DiskIndex) Search(q *Object, op Operator) (*DiskResult, error) {
	return d.inner.SearchKCtx(context.Background(), q, op, 1, SearchOptions{Filters: core.AllFilters})
}

// SearchKCtx is the full search call: the k-skyband for any k >= 1,
// context cancellation (the traversal aborts mid-search, returning the
// partial result with ctx's error), progressive OnCandidate, metric
// and filter selection — the same engine surface the in-memory index
// exposes. Any number of calls may run at once on one DiskIndex.
func (d *DiskIndex) SearchKCtx(ctx context.Context, q *Object, op Operator, k int, opts SearchOptions) (*DiskResult, error) {
	return d.inner.SearchKCtx(ctx, q, op, k, opts)
}

// Close flushes and closes the underlying page file.
func (d *DiskIndex) Close() error { return d.inner.Close() }
