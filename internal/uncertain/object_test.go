package uncertain

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spatialdom/internal/geom"
)

func TestNewUniform(t *testing.T) {
	o, err := New(1, []geom.Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != 4 || o.Dim() != 2 || o.ID() != 1 {
		t.Fatalf("basic accessors wrong: %v", o)
	}
	for i := 0; i < 4; i++ {
		if o.Prob(i) != 0.25 {
			t.Fatalf("Prob(%d) = %g", i, o.Prob(i))
		}
	}
	if o.Mass() != 1 {
		t.Fatalf("Mass = %g", o.Mass())
	}
	want := geom.NewRect(geom.Point{0, 0}, geom.Point{3, 3})
	if !o.MBR().Equal(want) {
		t.Fatalf("MBR = %v", o.MBR())
	}
}

func TestNewNormalizesWeights(t *testing.T) {
	o, err := New(2, []geom.Point{{0}, {1}, {2}}, []float64{2, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.Prob(0) != 0.2 || o.Prob(1) != 0.6 || o.Prob(2) != 0.2 {
		t.Fatalf("probs = %v", o.Probs())
	}
	if o.Mass() != 10 {
		t.Fatalf("Mass = %g", o.Mass())
	}
	var sum float64
	for _, p := range o.Probs() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probs sum to %g", sum)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []geom.Point
		ws   []float64
		want error
	}{
		{"empty", nil, nil, ErrNoInstances},
		{"dim mismatch", []geom.Point{{0, 0}, {1}}, nil, ErrDimMismatch},
		{"zero-dim", []geom.Point{{}}, nil, ErrDimMismatch},
		{"weight count", []geom.Point{{0}}, []float64{1, 2}, ErrWeightCount},
		{"negative weight", []geom.Point{{0}, {1}}, []float64{1, -1}, ErrBadWeight},
		{"nan weight", []geom.Point{{0}}, []float64{math.NaN()}, ErrBadWeight},
		{"zero mass", []geom.Point{{0}, {1}}, []float64{0, 0}, ErrZeroMass},
		{"overflowing mass", []geom.Point{{0}, {1}}, []float64{1e308, 1e308}, ErrBadWeight},
		{"nan coordinate", []geom.Point{{math.NaN()}}, nil, ErrBadCoordinate},
		{"inf coordinate", []geom.Point{{math.Inf(1)}}, nil, ErrBadCoordinate},
	}
	for _, c := range cases {
		if _, err := New(0, c.pts, c.ws); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestNewCopiesInput(t *testing.T) {
	pts := []geom.Point{{1, 1}}
	o := MustNew(0, pts, nil)
	pts[0][0] = 99
	if o.Instance(0)[0] != 1 {
		t.Fatal("object aliases caller's points")
	}
}

// FromNormalized and FromSlabs keep the probability bits they are given,
// reject what New rejects, and differ only in who owns the memory.
func TestFromNormalizedAndFromSlabs(t *testing.T) {
	third := 1.0 / 3
	probs := []float64{third, third, third} // sums to 1 only after rounding
	pts := []geom.Point{{1, 2}, {3, 4}, {5, 6}}
	a, err := FromNormalized(7, pts, probs)
	if err != nil {
		t.Fatal(err)
	}
	coords := []float64{1, 2, 3, 4, 5, 6}
	slabProbs := append([]float64(nil), probs...)
	b, err := FromSlabs(7, 2, coords, slabProbs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Object{a, b} {
		if o.ID() != 7 || o.Len() != 3 || o.Dim() != 2 || o.Mass() != 1 {
			t.Fatalf("accessors wrong: %v mass %g", o, o.Mass())
		}
		for i := range probs {
			if math.Float64bits(o.Prob(i)) != math.Float64bits(third) || !o.Instance(i).Equal(pts[i]) {
				t.Fatalf("instance %d: %v p=%x", i, o.Instance(i), math.Float64bits(o.Prob(i)))
			}
		}
		if !o.MBR().Equal(geom.NewRect(geom.Point{1, 2}, geom.Point{5, 6})) {
			t.Fatalf("MBR = %v", o.MBR())
		}
	}
	pts[0][0], probs[0] = 99, 0
	if a.Instance(0)[0] != 1 || a.Prob(0) != third {
		t.Fatal("FromNormalized aliases its input")
	}
	if &b.Instance(1)[0] != &coords[2] || &b.Probs()[0] != &slabProbs[0] {
		t.Fatal("FromSlabs copied the slabs it was given")
	}
	if cap(b.Instance(0)) != 2 {
		t.Fatal("an instance view can be appended into its neighbour")
	}

	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		dim    int
		coords []float64
		probs  []float64
		want   error
	}{
		{"empty", 1, nil, nil, ErrNoInstances},
		{"zero dim", 0, nil, []float64{1}, ErrDimMismatch},
		{"short slab", 2, []float64{1, 2, 3}, []float64{0.5, 0.5}, ErrDimMismatch},
		{"nan coordinate", 1, []float64{nan}, []float64{1}, ErrBadCoordinate},
		{"inf coordinate", 1, []float64{0, inf}, []float64{0.5, 0.5}, ErrBadCoordinate},
		{"negative probability", 1, []float64{0, 1}, []float64{1.5, -0.5}, ErrBadWeight},
		{"nan probability", 1, []float64{0}, []float64{nan}, ErrBadWeight},
		{"inf probability", 1, []float64{0}, []float64{inf}, ErrBadWeight},
		{"zero mass", 1, []float64{0, 1}, []float64{0, 0}, ErrZeroMass},
		{"half a unit", 1, []float64{0, 1}, []float64{0.25, 0.25}, ErrNotNormalized},
	}
	for _, c := range cases {
		if _, err := FromSlabs(0, c.dim, c.coords, c.probs); !errors.Is(err, c.want) {
			t.Errorf("FromSlabs %s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := FromNormalized(0, []geom.Point{{0, 0}, {1}}, []float64{0.5, 0.5}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("FromNormalized ragged instances: err = %v", err)
	}
	if _, err := FromNormalized(0, []geom.Point{{0}}, []float64{0.5, 0.5}); !errors.Is(err, ErrWeightCount) {
		t.Errorf("FromNormalized weight count: err = %v", err)
	}
	if _, err := FromNormalized(0, []geom.Point{{}}, []float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("FromNormalized zero-dim: err = %v", err)
	}
}

// FromSlabs accepts a sum within MassBound(m) of one and refuses one ulp
// past it, on either side. Every partial sum below is exact, so the sums are
// 1 ± 4·2⁻⁵², the bound for m = 4, and one ulp further out.
func TestFromSlabsAtTheMassBound(t *testing.T) {
	for _, c := range []struct {
		first float64 // the other three probabilities are ¼
		ok    bool
	}{
		{0.25 + 0x1p-50, true},
		{0.25 + 5*0x1p-52, false},
		{0.25 - 0x1p-50, true},
		{0.25 - 9*0x1p-53, false},
	} {
		probs := []float64{c.first, 0.25, 0.25, 0.25}
		sum := ((probs[0] + probs[1]) + probs[2]) + probs[3]
		if d := math.Abs(sum - 1); c.ok != (d <= MassBound(4)) || d == 0 {
			t.Fatalf("probabilities %v sum to %v: not the case the table means", probs, sum)
		}
		_, err := FromSlabs(0, 1, []float64{0, 1, 2, 3}, probs)
		if c.ok != (err == nil) || err != nil && !errors.Is(err, ErrNotNormalized) {
			t.Errorf("sum 1%+g: err = %v, want accepted %v", sum-1, err, c.ok)
		}
	}
}

// Every object New makes passes FromSlabs' test, whatever its weights: up
// to 4 096 instances, weights spread over twenty orders of magnitude.
func TestNewObjectsAreNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for iter := 0; iter < 300; iter++ {
		m := 1 + rng.Intn([]int{4, 64, 4096}[iter%3])
		pts, ws := make([]geom.Point, m), make([]float64, m)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64()}
			ws[i] = math.Exp(46 * (rng.Float64() - 0.5))
		}
		o := MustNew(iter, pts, ws)
		if _, err := FromSlabs(iter, 1, slices.Clone(o.Coords()), slices.Clone(o.Probs())); err != nil {
			t.Fatalf("m = %d: %v", m, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, nil, nil)
}

func TestMinMaxDist(t *testing.T) {
	o := MustNew(0, []geom.Point{{0, 0}, {3, 4}}, nil)
	q := geom.Point{0, 0}
	if d := o.MinDist(q); d != 0 {
		t.Fatalf("MinDist = %g", d)
	}
	if d := o.MaxDist(q); d != 5 {
		t.Fatalf("MaxDist = %g", d)
	}
}

func TestStringAndLabel(t *testing.T) {
	o := MustNew(7, []geom.Point{{0, 0}}, nil)
	if o.String() == "" {
		t.Fatal("empty String")
	}
	o.SetLabel("alice")
	if o.Label() != "alice" {
		t.Fatal("label lost")
	}
	if o.String() == "" {
		t.Fatal("empty labeled String")
	}
}

// An object is one coordinate slab, whichever constructor built it:
// Instance(i), Points()[i] and Coords()[i·d:(i+1)·d] are the same floats
// at the same address; Points is built once and every call returns that
// slice, also when eight goroutines race on the first call (run under
// -race); FromSlabs keeps the caller's slab; and FromSlabs allocates only
// the object and one slab for the MBR's two corners.
func TestFlatObjectViews(t *testing.T) {
	pts := []geom.Point{{1, 5, 2}, {-3, 4, 0}, {7, 7, 7}, {0, -1, 9}}
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	var coords []float64
	for _, p := range pts {
		coords = append(coords, p...)
	}
	build := map[string]func() *Object{
		"New":            func() *Object { return MustNew(3, pts, probs) },
		"FromNormalized": func() *Object { o, _ := FromNormalized(3, pts, probs); return o },
		"FromSlabs": func() *Object {
			o, _ := FromSlabs(3, 3, append([]float64(nil), coords...), append([]float64(nil), probs...))
			return o
		},
	}
	for name, mk := range build {
		o := mk()
		d := o.Dim()
		var wg sync.WaitGroup
		got := make([][]geom.Point, 8)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = o.Points()
			}()
		}
		wg.Wait()
		for g, p := range got {
			if len(p) != o.Len() || &p[0] != &got[0][0] {
				t.Fatalf("%s: goroutine %d got another Points slice", name, g)
			}
		}
		if again := o.Points(); &again[0] != &got[0][0] {
			t.Fatalf("%s: Points built a second slice", name)
		}
		for i := 0; i < o.Len(); i++ {
			in, pt, slab := o.Instance(i), o.Points()[i], o.Coords()[i*d:(i+1)*d]
			if !in.Equal(pts[i]) || &in[0] != &pt[0] || &in[0] != &slab[0] || len(pt) != d || cap(in) != d {
				t.Fatalf("%s: instance %d: Instance %v, Points %v, Coords %v", name, i, in, pt, slab)
			}
		}
		mbr := o.MBR()
		if !mbr.Equal(geom.NewRect(geom.Point{-3, -1, 0}, geom.Point{7, 7, 9})) {
			t.Fatalf("%s: MBR %v", name, mbr)
		}
	}
	// The object and its MBR's corners: two allocations over slabs given up.
	if n := testing.AllocsPerRun(10, func() {
		if _, err := FromSlabs(5, 3, coords, probs); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("FromSlabs allocates %v times, want 2", n)
	}
	own := append([]float64(nil), coords...)
	o, err := FromSlabs(4, 3, own, append([]float64(nil), probs...))
	if err != nil {
		t.Fatal(err)
	}
	if &o.Coords()[0] != &own[0] || &o.Points()[2][0] != &own[6] {
		t.Fatal("FromSlabs copied the coordinate slab it was given")
	}
}
