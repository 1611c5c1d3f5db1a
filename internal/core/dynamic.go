package core

import (
	"fmt"

	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
)

// Dynamic updates. The global R-tree supports insertion and deletion, so
// an Index can track a changing object set; searches running concurrently
// with updates are NOT safe (synchronize externally).

// Insert adds an object to the index. The object's ID must be unused and
// its dimensionality must match.
func (idx *Index) Insert(o *uncertain.Object) error {
	if o.Dim() != idx.dim {
		return fmt.Errorf("%w: object %d has dim %d, want %d", ErrIndexDimMix, o.ID(), o.Dim(), idx.dim)
	}
	if _, dup := idx.objects[o.ID()]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, o.ID())
	}
	idx.objects[o.ID()] = o
	idx.list = append(idx.list, o)
	idx.tree.Insert(rtree.Entry{Rect: o.MBR(), ID: int64(o.ID())})
	// Keep the dense cache table covering every ID (see NewIndex): a
	// stale span would send each later object to the sparse-map fallback
	// on every search.
	switch {
	case o.ID() < 0:
		idx.denseSpan = 0
	case idx.denseSpan > 0 && o.ID() >= idx.denseSpan:
		idx.denseSpan = o.ID() + 1
	}
	return nil
}

// Delete removes the object with the given ID, reporting whether it was
// present.
func (idx *Index) Delete(id int) bool {
	o, ok := idx.objects[id]
	if !ok {
		return false
	}
	delete(idx.objects, id)
	for i, x := range idx.list {
		if x.ID() == id {
			idx.list = append(idx.list[:i], idx.list[i+1:]...)
			break
		}
	}
	idx.tree.Delete(rtree.Entry{Rect: o.MBR(), ID: int64(id)})
	return true
}
