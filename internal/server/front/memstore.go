package front

// MemStore makes the in-memory index a mutable, concurrency-safe
// server backend. core.Index.Insert/Delete are documented as unsafe
// against concurrent searches (they rebuild R-tree paths in place), so
// the store serializes them behind an RWMutex: searches share the read
// side, mutations take the write side. That is exactly the semantics the
// Door's invalidation protocol needs — a mutation strictly precedes or
// strictly follows any given search — bought at the cost of pausing
// reads during a mutation, which the mutable disk backend avoids with
// real snapshots. For a serving tier test bed and modest write rates it
// is the honest trade.

import (
	"context"
	"slices"
	"sync"

	"spatialdom/internal/core"
	"spatialdom/internal/uncertain"
)

// MemStore wraps *core.Index with mutation support. It implements
// server.Backend, server.Mutator and server.ObjectLister.
type MemStore struct {
	mu  sync.RWMutex
	idx *core.Index
}

// NewMemStore builds a mutable in-memory backend over objs.
func NewMemStore(objs []*uncertain.Object) (*MemStore, error) {
	idx, err := core.NewIndex(objs)
	if err != nil {
		return nil, err
	}
	return &MemStore{idx: idx}, nil
}

func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Len()
}

func (s *MemStore) Dim() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Dim()
}

// SearchKCtx runs the engine under the read lock. The in-memory index
// does no I/O, so the hold time is the search itself.
func (s *MemStore) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.SearchKCtx(ctx, q, op, k, opts)
}

// Mutable implements server.Mutator.
func (s *MemStore) Mutable() bool { return true }

// Insert adds one object; duplicate IDs and dimension mixes fail with
// the index's own typed errors.
func (s *MemStore) Insert(o *uncertain.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Insert(o)
}

// Delete removes one object by ID, reporting whether it existed.
func (s *MemStore) Delete(id int) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Delete(id), nil
}

// Objects and Object implement server.ObjectLister. Objects is a copy
// made under the read lock: the index's own slice is rearranged in place
// by every delete.
func (s *MemStore) Objects() []*uncertain.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.idx.Objects())
}

func (s *MemStore) Object(id int) *uncertain.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Object(id)
}
