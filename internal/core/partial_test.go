package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"spatialdom/internal/faults"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// faultyBackend is a hand-built two-level tree for exercising the engine's
// degradation paths without a disk: the root holds a set of resolvable
// objects, one unavailable subtree, and one unavailable object reference.
type faultyBackend struct {
	objs []*uncertain.Object // resolvable, Obj set eagerly
	// badNodeErr/badObjErr, when non-nil, are returned from the bad
	// subtree's Expand and the bad object's Resolve.
	badNodeErr error
	badObjErr  error
}

func (b *faultyBackend) Root() (NodeRef, error) { return NodeRef{ID: 1}, nil }

func (b *faultyBackend) Expand(n NodeRef, visit func(BackendEntry)) error {
	switch n.ID {
	case 1:
		for _, o := range b.objs {
			visit(BackendEntry{Rect: o.MBR(), Obj: ObjRef{Obj: o}})
		}
		if b.badNodeErr != nil {
			// Nearer than every object, so entry pruning (Theorem 4) cannot
			// discard it before the engine tries — and fails — to expand it.
			visit(BackendEntry{
				Rect:   geom.Rect{Lo: geom.Point{0.1}, Hi: geom.Point{0.2}},
				IsNode: true,
				Node:   NodeRef{ID: 2},
			})
		}
		if b.badObjErr != nil {
			visit(BackendEntry{
				Rect: geom.Rect{Lo: geom.Point{0.5}, Hi: geom.Point{0.5}},
				Obj:  ObjRef{ID: 999},
			})
		}
		return nil
	case 2:
		return b.badNodeErr
	}
	return fmt.Errorf("unknown node %d", n.ID)
}

func (b *faultyBackend) Resolve(r ObjRef) (*uncertain.Object, error) {
	if r.Obj != nil {
		return r.Obj, nil
	}
	return nil, b.badObjErr
}

func (b *faultyBackend) AccessStats() IOStats { return IOStats{} }

func obj1d(t *testing.T, id int, x float64) *uncertain.Object {
	t.Helper()
	o, err := uncertain.New(id, []geom.Point{{x}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func unavailable(page uint32) error {
	return &faults.PageError{Op: "read", Page: page, Err: faults.ErrChecksum, Quarantined: true}
}

func TestSearchBackendDegradesOnUnavailable(t *testing.T) {
	b := &faultyBackend{
		objs:       []*uncertain.Object{obj1d(t, 1, 1), obj1d(t, 2, 2), obj1d(t, 3, 30)},
		badNodeErr: unavailable(7),
		badObjErr:  unavailable(8),
	}
	q := obj1d(t, 0, 0)
	res, err := SearchBackend(context.Background(), b, q, PSD, 1, SearchOptions{Filters: AllFilters})

	pe, ok := AsPartial(err)
	if !ok {
		t.Fatalf("err = %v, want *PartialResultError", err)
	}
	if res == nil || pe.Result != res {
		t.Fatal("partial error must carry the result it degrades")
	}
	if !res.Incomplete {
		t.Fatal("degraded result not flagged Incomplete")
	}
	if pe.UnreadableNodes != 1 || pe.UnreadableObjects != 1 {
		t.Fatalf("skip counts = %d/%d, want 1/1", pe.UnreadableNodes, pe.UnreadableObjects)
	}
	if !errors.Is(pe, faults.ErrUnavailable) || !errors.Is(pe, faults.ErrChecksum) {
		t.Fatal("partial must unwrap to its storage causes")
	}
	// The readable portion is fully searched: object 1 is the nearest
	// undominated candidate.
	ids := res.IDs()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("candidates = %v, want [1]", ids)
	}
}

func TestSearchBackendHardErrorAborts(t *testing.T) {
	hard := errors.New("disk on fire")
	b := &faultyBackend{
		objs:       []*uncertain.Object{obj1d(t, 1, 1)},
		badNodeErr: hard, // not ErrUnavailable: must abort
	}
	q := obj1d(t, 0, 0)
	res, err := SearchBackend(context.Background(), b, q, PSD, 1, SearchOptions{Filters: AllFilters})
	if !errors.Is(err, hard) {
		t.Fatalf("err = %v, want the hard error", err)
	}
	if _, ok := AsPartial(err); ok {
		t.Fatal("hard error must not be partial")
	}
	if res != nil {
		t.Fatal("hard error must return nil Result")
	}
}

func TestSearchBackendCleanHasNoFlag(t *testing.T) {
	b := &faultyBackend{objs: []*uncertain.Object{obj1d(t, 1, 1), obj1d(t, 2, 2)}}
	q := obj1d(t, 0, 0)
	res, err := SearchBackend(context.Background(), b, q, PSD, 1, SearchOptions{Filters: AllFilters})
	if err != nil || res.Incomplete {
		t.Fatalf("clean search: err=%v incomplete=%v", err, res.Incomplete)
	}
}

func TestAsPartial(t *testing.T) {
	pe := &PartialResultError{}
	pe.note(unavailable(1), true)
	pe.note(unavailable(2), false)
	if got, ok := AsPartial(fmt.Errorf("wrapped: %w", pe)); !ok || got != pe {
		t.Fatal("AsPartial should see through wrapping")
	}
	if _, ok := AsPartial(nil); ok {
		t.Fatal("AsPartial(nil) must be false")
	}
	if _, ok := AsPartial(errors.New("x")); ok {
		t.Fatal("AsPartial on unrelated error must be false")
	}
	if pe.UnreadableNodes != 1 || pe.UnreadableObjects != 1 || len(pe.Errs) != 2 {
		t.Fatalf("note bookkeeping wrong: %+v", pe)
	}
	// The cap bounds retained causes, not counts.
	for i := 0; i < 2*maxPartialErrs; i++ {
		pe.note(unavailable(uint32(i)), true)
	}
	if len(pe.Errs) != maxPartialErrs {
		t.Fatalf("retained %d causes, cap is %d", len(pe.Errs), maxPartialErrs)
	}
	if pe.UnreadableNodes != 1+2*maxPartialErrs {
		t.Fatalf("counts must stay exact past the cap: %d", pe.UnreadableNodes)
	}
}
