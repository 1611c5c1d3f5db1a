package slab

import (
	"testing"
)

func TestAllocSizesAndIndependence(t *testing.T) {
	var a Arena[int]
	x := a.Alloc(3)
	y := a.Alloc(5)
	if len(x) != 3 || cap(x) != 3 {
		t.Fatalf("x len/cap = %d/%d, want 3/3", len(x), cap(x))
	}
	if len(y) != 5 || cap(y) != 5 {
		t.Fatalf("y len/cap = %d/%d, want 5/5", len(y), cap(y))
	}
	for i := range x {
		x[i] = 100 + i
	}
	for i := range y {
		y[i] = 200 + i
	}
	for i := range x {
		if x[i] != 100+i {
			t.Fatalf("x[%d] clobbered: %d", i, x[i])
		}
	}
	if a.Alloc(0) != nil {
		t.Fatal("Alloc(0) should be nil")
	}
}

func TestLargeRequestGetsOwnSlab(t *testing.T) {
	var a Arena[byte]
	big := a.Alloc(3 * minSlab)
	if len(big) != 3*minSlab {
		t.Fatalf("len = %d", len(big))
	}
	if a.Footprint() < 3*minSlab {
		t.Fatalf("footprint %d < request", a.Footprint())
	}
}

func TestResetReusesSlabs(t *testing.T) {
	var a Arena[float64]
	for i := 0; i < 10; i++ {
		a.Alloc(300)
	}
	foot := a.Footprint()
	for round := 0; round < 5; round++ {
		a.Reset()
		for i := 0; i < 10; i++ {
			a.Alloc(300)
		}
	}
	if a.Footprint() != foot {
		t.Fatalf("footprint grew across resets: %d -> %d", foot, a.Footprint())
	}
}

func TestWarmRoundsDoNotAllocate(t *testing.T) {
	var a Arena[float64]
	round := func() {
		a.Reset()
		for i := 0; i < 7; i++ {
			a.Alloc(513)
		}
	}
	round() // warm the slabs
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("warm rounds allocate %v times", n)
	}
}

func TestResetZeroClearsHandedOutElements(t *testing.T) {
	var a Arena[*int]
	v := 7
	p := a.Alloc(4)
	for i := range p {
		p[i] = &v
	}
	// Force a second slab so the multi-slab path is covered.
	q := a.AllocZeroed(minSlab)
	q[0] = &v
	a.ResetZero()
	r := a.Alloc(4)
	for i, e := range r {
		if e != nil {
			t.Fatalf("element %d not cleared", i)
		}
	}
}

func TestFillReachesEveryHandedOutElement(t *testing.T) {
	var a Arena[float64]
	p := a.Alloc(700)
	q := a.Alloc(700) // does not fit the first slab's rest: a second slab
	untouched := a.Alloc(10)
	a.Fill(-1)
	for i := range p {
		if p[i] != -1 || q[i] != -1 {
			t.Fatalf("element %d not filled: %v %v", i, p[i], q[i])
		}
	}
	for i := range untouched {
		if untouched[i] != -1 {
			t.Fatalf("element %d of the active slab not filled", i)
		}
	}
	if rest := a.Alloc(5); rest[0] == -1 {
		t.Fatal("Fill reached past what was handed out")
	}
}

func TestTrimFallsBackToBound(t *testing.T) {
	var a Arena[int64]
	for i := 0; i < 9; i++ {
		a.Alloc(minSlab)
	}
	if got := a.Footprint(); got != 9*minSlab {
		t.Fatalf("footprint %d, want %d", got, 9*minSlab)
	}
	a.Trim(3 * minSlab)
	if got := a.Footprint(); got != 3*minSlab {
		t.Fatalf("trimmed footprint %d, want %d", got, 3*minSlab)
	}
	// A round inside the bound keeps its slabs and allocates nothing.
	round := func() {
		a.Alloc(minSlab)
		a.Alloc(minSlab)
		a.Trim(3 * minSlab)
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("rounds inside the bound allocate %v times", n)
	}
	// The first slab stays even when it alone is over the bound.
	var b Arena[int64]
	b.Alloc(4 * minSlab)
	b.Trim(minSlab)
	if got := b.Footprint(); got != 4*minSlab {
		t.Fatalf("first slab dropped: footprint %d", got)
	}
}
