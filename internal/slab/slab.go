// Package slab provides a grow-only slab arena: many small slices carved
// out of a few large backing arrays, all released at once.
//
// The dominance hot path builds thousands of short-lived-per-search slices
// (distribution atoms, sorted-run instance orders, per-object caches). Allocating
// each with make churns the garbage collector; an Arena instead hands out
// sub-slices of reusable slabs, and a search-end Reset recycles every slab
// for the next search. Steady-state searches therefore allocate nothing:
// the slabs reach a high-water mark and stay there, pooled alongside the
// engine's other per-search scratch.
package slab

// minSlab is the smallest slab, in elements. Requests larger than the
// current slab get a dedicated power-of-two slab of at least this size.
const minSlab = 1024

// Arena hands out []T windows from large backing slabs. The zero value is
// ready to use. An Arena is not safe for concurrent use.
//
// Allocations stay valid until the next Reset/ResetZero; the arena never
// moves or shrinks slabs, so held sub-slices are stable.
type Arena[T any] struct {
	slabs  [][]T
	active int // index of the slab free starts in
	free   []T // unused suffix of slabs[active]
}

// Alloc returns a length-n slice with capacity exactly n. The contents are
// unspecified (previous allocations' data may remain); use AllocZeroed for
// pointer-bearing element types whose stale contents must not resurface.
func (a *Arena[T]) Alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if len(a.free) < n {
		a.grow(n)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// AllocZeroed is Alloc with the returned window cleared.
func (a *Arena[T]) AllocZeroed(n int) []T {
	out := a.Alloc(n)
	clear(out)
	return out
}

// grow advances to the next slab that can hold n elements, appending a new
// power-of-two slab when none of the retained ones fits.
//
//nnc:coldpath amortized slab growth: slabs are retained across Reset (and by Trim up to its bound), so warm searches and warm commits never reach this make
func (a *Arena[T]) grow(n int) {
	for a.active+1 < len(a.slabs) {
		a.active++
		if s := a.slabs[a.active]; len(s) >= n {
			a.free = s
			return
		}
	}
	size := minSlab
	for size < n {
		size *= 2
	}
	s := make([]T, size)
	a.slabs = append(a.slabs, s)
	a.active = len(a.slabs) - 1
	a.free = s
}

// Reset invalidates every allocation and makes all slabs available again.
// Slab contents are retained; see ResetZero when T holds pointers.
func (a *Arena[T]) Reset() {
	a.active = 0
	if len(a.slabs) > 0 {
		a.free = a.slabs[0]
	} else {
		a.free = nil
	}
}

// ResetZero is Reset after clearing every element handed out since the
// previous reset, so pointer-bearing slabs stop pinning the objects of a
// finished search.
func (a *Arena[T]) ResetZero() {
	for i := 0; i < a.active; i++ {
		clear(a.slabs[i])
	}
	if a.active < len(a.slabs) {
		s := a.slabs[a.active]
		clear(s[:len(s)-len(a.free)])
	}
	a.Reset()
}

// Fill sets every element handed out since the previous reset to v (and,
// in slabs the arena stepped over, the elements it skipped). A test fills
// a reset arena with poison so that a slice kept past its lifetime reads
// garbage instead of the values it was handed.
func (a *Arena[T]) Fill(v T) {
	for _, s := range a.slabs[:a.active] {
		fill(s, v)
	}
	if a.active < len(a.slabs) {
		s := a.slabs[a.active]
		fill(s[:len(s)-len(a.free)], v)
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Trim is Reset that also drops slabs once the ones kept hold max
// elements: an arena whose last round outgrew max falls back to about max
// instead of keeping its high-water mark. The first slab is always kept.
func (a *Arena[T]) Trim(max int) {
	n := 0
	for i, s := range a.slabs {
		if n += len(s); i > 0 && n > max {
			clear(a.slabs[i:])
			a.slabs = a.slabs[:i]
			break
		}
	}
	a.Reset()
}

// Footprint returns the total elements held across all slabs — the arena's
// high-water memory, for introspection and tests.
func (a *Arena[T]) Footprint() int {
	var n int
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}
