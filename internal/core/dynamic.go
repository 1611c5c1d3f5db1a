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
	if _, dup := idx.pos[o.ID()]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, o.ID())
	}
	idx.pos[o.ID()] = len(idx.list)
	idx.list = append(idx.list, o)
	idx.tree.Insert(rtree.Entry{Rect: o.MBR(), ID: int64(o.ID())})
	return nil
}

// Delete removes the object with the given ID, reporting whether it was
// present. The last object of the list takes the removed one's place, so
// the list costs O(1) to maintain and loses its order.
func (idx *Index) Delete(id int) bool {
	i, ok := idx.pos[id]
	if !ok {
		return false
	}
	o, last := idx.list[i], len(idx.list)-1
	idx.list[i] = idx.list[last]
	idx.pos[idx.list[i].ID()] = i
	idx.list[last] = nil
	idx.list = idx.list[:last]
	delete(idx.pos, id)
	idx.tree.Delete(rtree.Entry{Rect: o.MBR(), ID: int64(id)})
	return true
}
