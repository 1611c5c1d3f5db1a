package datagen

import (
	"math"
	"testing"

	"spatialdom/internal/geom"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Params{N: 50, Seed: 7})
	b := Generate(Params{N: 50, Seed: 7})
	if len(a.Objects) != 50 || len(b.Objects) != 50 {
		t.Fatalf("sizes %d, %d", len(a.Objects), len(b.Objects))
	}
	for i := range a.Objects {
		ao, bo := a.Objects[i], b.Objects[i]
		if ao.Len() != bo.Len() {
			t.Fatalf("object %d instance counts differ", i)
		}
		for k := 0; k < ao.Len(); k++ {
			if !ao.Instance(k).Equal(bo.Instance(k)) {
				t.Fatalf("object %d instance %d differs", i, k)
			}
		}
	}
	c := Generate(Params{N: 50, Seed: 8})
	same := true
	for i := range a.Objects {
		if a.Objects[i].Len() != c.Objects[i].Len() ||
			!a.Objects[i].Instance(0).Equal(c.Objects[i].Instance(0)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateDefaultsAndDims(t *testing.T) {
	cases := []struct {
		c   CenterDist
		dim int
	}{
		{Independent, 3},
		{AntiCorrelated, 3},
		{Clustered, 2},
		{GWLike, 2},
		{HouseLike, 3},
		{NBALike, 3},
	}
	for _, cse := range cases {
		ds := Generate(Params{N: 30, Centers: cse.c, Seed: 1})
		if len(ds.Objects) != 30 {
			t.Fatalf("%v: N = %d", cse.c, len(ds.Objects))
		}
		for _, o := range ds.Objects {
			if o.Dim() != cse.dim {
				t.Fatalf("%v: dim = %d, want %d", cse.c, o.Dim(), cse.dim)
			}
			if o.Len() < 1 {
				t.Fatalf("%v: empty object", cse.c)
			}
			for k := 0; k < o.Len(); k++ {
				for _, v := range o.Instance(k) {
					if v < 0 || v > Domain {
						t.Fatalf("%v: coordinate %g outside domain", cse.c, v)
					}
				}
			}
		}
	}
}

func TestInstanceCountsNearAverage(t *testing.T) {
	ds := Generate(Params{N: 200, M: 40, Seed: 3})
	total := 0
	for _, o := range ds.Objects {
		if o.Len() < 30 || o.Len() > 51 {
			t.Fatalf("instance count %d outside ±25%% of 40", o.Len())
		}
		total += o.Len()
	}
	avg := float64(total) / 200
	if avg < 35 || avg > 45 {
		t.Fatalf("average instance count %g too far from 40", avg)
	}
}

func TestEdgeLengthControlsSpread(t *testing.T) {
	small := Generate(Params{N: 100, EdgeLen: 50, Seed: 4})
	large := Generate(Params{N: 100, EdgeLen: 800, Seed: 4})
	avgEdge := func(ds *Dataset) float64 {
		var s float64
		for _, o := range ds.Objects {
			s += o.MBR().Margin() / float64(o.Dim())
		}
		return s / float64(len(ds.Objects))
	}
	if avgEdge(small) >= avgEdge(large) {
		t.Fatalf("edge length not monotone: %g vs %g", avgEdge(small), avgEdge(large))
	}
}

func TestAntiCorrelatedIsAnti(t *testing.T) {
	ds := Generate(Params{N: 2000, Centers: AntiCorrelated, Dim: 2, Seed: 5})
	// Pearson correlation of the two center coordinates should be clearly
	// negative.
	var sx, sy, sxx, syy, sxy float64
	n := float64(len(ds.Centers))
	for _, c := range ds.Centers {
		sx += c[0]
		sy += c[1]
		sxx += c[0] * c[0]
		syy += c[1] * c[1]
		sxy += c[0] * c[1]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	r := cov / math.Sqrt(vx*vy)
	if r > -0.5 {
		t.Fatalf("anti-correlated centers have correlation %g, want strongly negative", r)
	}
}

func TestHouseLikeOnSimplex(t *testing.T) {
	ds := Generate(Params{N: 100, Centers: HouseLike, Seed: 6})
	for _, c := range ds.Centers {
		sum := c[0] + c[1] + c[2]
		if math.Abs(sum-Domain) > 1e-6 {
			t.Fatalf("simplex center sums to %g", sum)
		}
	}
}

// GW-like objects must overlap far more than standard box objects — that
// is their role in the evaluation.
func TestGWOverlapHeavierThanSynthetic(t *testing.T) {
	gw := Generate(Params{N: 150, Centers: GWLike, M: 20, Seed: 7})
	syn := Generate(Params{N: 150, Centers: Independent, Dim: 2, M: 20, EdgeLen: 100, Seed: 7})
	overlapFrac := func(objs *Dataset) float64 {
		count, total := 0, 0
		for i := 0; i < 100; i++ {
			for j := i + 1; j < 100; j++ {
				total++
				if objs.Objects[i].MBR().Intersects(objs.Objects[j].MBR()) {
					count++
				}
			}
		}
		return float64(count) / float64(total)
	}
	if overlapFrac(gw) <= overlapFrac(syn) {
		t.Fatalf("GW overlap %g not heavier than synthetic %g", overlapFrac(gw), overlapFrac(syn))
	}
}

func TestQueriesWorkload(t *testing.T) {
	ds := Generate(Params{N: 80, Seed: 9})
	qs := ds.Queries(10, 30, 200, 11)
	if len(qs) != 10 {
		t.Fatalf("%d queries", len(qs))
	}
	for _, q := range qs {
		if q.Dim() != 3 {
			t.Fatalf("query dim %d", q.Dim())
		}
		if q.Len() < 22 || q.Len() > 38 {
			t.Fatalf("query instance count %d not near 30", q.Len())
		}
		if q.ID() >= 0 {
			t.Fatalf("query IDs must be negative to avoid colliding with objects, got %d", q.ID())
		}
	}
	// Deterministic.
	qs2 := ds.Queries(10, 30, 200, 11)
	for i := range qs {
		if !qs[i].Instance(0).Equal(qs2[i].Instance(0)) {
			t.Fatal("queries not deterministic")
		}
	}
}

func TestCenterDistString(t *testing.T) {
	for c, want := range map[CenterDist]string{
		Independent: "E-N", AntiCorrelated: "A-N", Clustered: "CLUST",
		HouseLike: "HOUSE", NBALike: "NBA", GWLike: "GW",
	} {
		if c.String() != want {
			t.Fatalf("%d String = %q, want %q", int(c), c.String(), want)
		}
		if got, err := ParseCenterDist(want); err != nil || got != c {
			t.Fatalf("ParseCenterDist(%q) = %v, %v", want, got, err)
		}
	}
	if CenterDist(42).String() == "" {
		t.Fatal("unknown CenterDist String empty")
	}
	// The -dist spellings of the command-line tools.
	for s, c := range map[string]CenterDist{
		"anti": AntiCorrelated, "indep": Independent, "house": HouseLike,
		"nba": NBALike, "gw": GWLike, "clust": Clustered, " Anti ": AntiCorrelated,
	} {
		if got, err := ParseCenterDist(s); err != nil || got != c {
			t.Fatalf("ParseCenterDist(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCenterDist("uniform"); err == nil {
		t.Fatal("ParseCenterDist accepted an unknown name")
	}
}

var _ = geom.Point{} // keep geom import for helpers above
