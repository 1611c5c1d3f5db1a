package geom

import (
	"math/rand"
	"testing"
)

// bruteFSDMBR approximates the exact criterion by dense sampling of query
// positions, used to cross-validate the analytic test.
func bruteFSDMBR(u, v, q Rect, rng *rand.Rand, samples int) bool {
	// Include corners of q as mandatory samples.
	d := q.Dim()
	var probe func(idx int, p Point) bool
	p0 := make(Point, d)
	probe = func(idx int, p Point) bool {
		if idx == d {
			return u.MaxSqDistPoint(p) <= v.MinSqDistPoint(p)+1e-12
		}
		p[idx] = q.Lo[idx]
		if !probe(idx+1, p) {
			return false
		}
		p[idx] = q.Hi[idx]
		return probe(idx+1, p)
	}
	if !probe(0, p0) {
		return false
	}
	for i := 0; i < samples; i++ {
		p := randPointIn(rng, q)
		if u.MaxSqDistPoint(p) > v.MinSqDistPoint(p)+1e-12 {
			return false
		}
	}
	return true
}

func TestFSDMBRObvious(t *testing.T) {
	q := NewRect(Point{0, 0}, Point{1, 1})
	u := NewRect(Point{0, 0}, Point{2, 2})
	farV := NewRect(Point{100, 100}, Point{101, 101})
	nearV := NewRect(Point{1, 1}, Point{2, 2})
	if !FSDMBR(u, farV, q) {
		t.Fatal("U must dominate a far-away V")
	}
	if FSDMBR(u, nearV, q) {
		t.Fatal("U cannot dominate an overlapping V")
	}
	if FSDMBR(u, u, q) {
		t.Fatal("a non-degenerate rect cannot dominate itself")
	}
}

func TestFSDMBRDegeneratePoints(t *testing.T) {
	// Single-point rects reduce to a plain distance comparison.
	q := PointRect(Point{0, 0})
	u := PointRect(Point{1, 0})
	v := PointRect(Point{3, 0})
	if !FSDMBR(u, v, q) {
		t.Fatal("closer point must dominate farther point")
	}
	if FSDMBR(v, u, q) {
		t.Fatal("farther point must not dominate closer point")
	}
	// Equal distance: <= semantics, dominance holds both ways at MBR level.
	w := PointRect(Point{0, 1})
	u2 := PointRect(Point{1, 0})
	if !FSDMBR(u2, w, q) || !FSDMBR(w, u2, q) {
		t.Fatal("equidistant points dominate each other under <=")
	}
}

// The analytic per-dimension test must agree with brute-force sampling. The
// sampling can only under-reject (a missed witness makes brute force say
// "dominates" while the exact test says no), so we assert:
//   - exact says true  => sampling must say true;
//   - exact says false => we search for a witness and must find one when the
//     margin is clear.
func TestFSDMBRAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	agree, total := 0, 0
	for iter := 0; iter < 3000; iter++ {
		d := 1 + rng.Intn(5) // cover the full Table 2 dimensionality range
		q := randRect(rng, d, 5)
		u := randRect(rng, d, 8)
		v := randRect(rng, d, 8)
		exact := FSDMBR(u, v, q)
		sampled := bruteFSDMBR(u, v, q, rng, 300)
		if exact && !sampled {
			t.Fatalf("exact=true but sampling found witness: u=%v v=%v q=%v", u, v, q)
		}
		if exact == sampled {
			agree++
		}
		total++
	}
	// Random rects rarely sit exactly on the decision boundary; near-total
	// agreement is expected (sampling may miss razor-thin witnesses).
	if agree < total*99/100 {
		t.Fatalf("agreement %d/%d too low", agree, total)
	}
}

// Dominated-by-construction: translate U far toward the query and V far away.
func TestFSDMBRConstructedPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 500; iter++ {
		d := 1 + rng.Intn(4)
		q := randRect(rng, d, 3)
		u := randRect(rng, d, 3)
		v := randRect(rng, d, 3)
		// Push v out along dimension 0 until it must be dominated.
		shift := 1000.0
		v2lo, v2hi := v.Lo.Clone(), v.Hi.Clone()
		v2lo[0] += shift
		v2hi[0] += shift
		v2 := Rect{Lo: v2lo, Hi: v2hi}
		if !FSDMBR(u, v2, q) {
			t.Fatalf("far-shifted V must be dominated (d=%d)", d)
		}
		if FSDMBR(v2, u, q) {
			t.Fatalf("far-shifted V cannot dominate U (d=%d)", d)
		}
	}
}

func TestFSDMBRTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	checked := 0
	for iter := 0; iter < 20000 && checked < 50; iter++ {
		d := 1 + rng.Intn(2)
		q := randRect(rng, d, 3)
		u := randRect(rng, d, 4)
		v := randRect(rng, d, 4)
		// Build a w likely dominated by v.
		w := randRect(rng, d, 4)
		wlo, whi := w.Lo.Clone(), w.Hi.Clone()
		wlo[0] += 50
		whi[0] += 50
		w = Rect{Lo: wlo, Hi: whi}
		vlo, vhi := v.Lo.Clone(), v.Hi.Clone()
		vlo[0] += 20
		vhi[0] += 20
		v = Rect{Lo: vlo, Hi: vhi}
		if FSDMBR(u, v, q) && FSDMBR(v, w, q) {
			checked++
			if !FSDMBR(u, w, q) {
				t.Fatalf("transitivity violated: u=%v v=%v w=%v q=%v", u, v, w, q)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no transitive triples exercised")
	}
}

func BenchmarkFSDMBR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := randRect(rng, 3, 5)
	u := randRect(rng, 3, 8)
	v := randRect(rng, 3, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FSDMBR(u, v, q)
	}
}
