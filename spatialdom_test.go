package spatialdom

import "testing"

func mustObject(t *testing.T, id int, rows [][]float64, ws []float64) *Object {
	t.Helper()
	o, err := NewObject(id, rows, ws)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestFacadeQuickstartFlow(t *testing.T) {
	a := mustObject(t, 1, [][]float64{{1, 2}, {2, 3}}, nil)
	b := mustObject(t, 2, [][]float64{{8, 8}, {9, 9}}, []float64{3, 1})
	q := mustObject(t, 0, [][]float64{{0, 0}, {1, 1}}, nil)

	idx, err := NewIndex([]*Object{a, b})
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search(q, PSD)
	if len(res.IDs()) != 1 || res.IDs()[0] != 1 {
		t.Fatalf("candidates = %v, want [1]", res.IDs())
	}

	checker := NewChecker(q, PSD, AllFilters)
	if !checker.Dominates(a, b) || checker.Dominates(b, a) {
		t.Fatal("dominance direction wrong")
	}

	if nn := NearestNeighbor([]*Object{a, b}, q, ExpectedDistFunc()); nn != a {
		t.Fatal("NN wrong")
	}
	ranked := RankObjects([]*Object{b, a}, q, EMDFunc())
	if ranked[0] != a {
		t.Fatal("ranking wrong")
	}
}

func TestFacadeOperatorsAndFamilies(t *testing.T) {
	if len(Operators) != 5 {
		t.Fatalf("Operators = %v", Operators)
	}
	if SSD.String() != "SSD" || FPlusSD.String() != "F+SD" {
		t.Fatal("operator names")
	}
	for _, f := range []NNFunc{
		MinDistFunc(), MaxDistFunc(), ExpectedDistFunc(), QuantileDistFunc(0.5),
		NNProbFunc(), ExpectedRankFunc(), GlobalTopKFunc(2, ""),
		HausdorffFunc(), SumMinDistFunc(), EMDFunc(), NetflowFunc(),
	} {
		if f.Name() == "" {
			t.Fatal("empty function name")
		}
	}
	if N1 == N2 || N2 == N3 {
		t.Fatal("family constants collide")
	}
}

func TestFacadeNewObjectErrors(t *testing.T) {
	if _, err := NewObject(1, nil, nil); err == nil {
		t.Fatal("empty object accepted")
	}
	if _, err := NewObject(1, [][]float64{{1}, {1, 2}}, nil); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestFacadeGenerateDataset(t *testing.T) {
	ds := GenerateDataset(DatasetParams{N: 25, Seed: 3})
	if len(ds.Objects) != 25 {
		t.Fatalf("N = %d", len(ds.Objects))
	}
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 4, 200, 9)[0]
	res := idx.Search(q, SSSD)
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
}

func TestFacadeCSVHelpers(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/objs.csv"
	a := mustObject(t, 1, [][]float64{{1, 2}, {3, 4}}, []float64{1, 3})
	b := mustObject(t, 2, [][]float64{{5, 6}}, nil)
	if err := SaveObjectsCSV(path, []*Object{a, b}); err != nil {
		t.Fatal(err)
	}
	back, err := LoadObjectsCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].ID() != 1 || back[0].Prob(1) != 0.75 || back[1].Len() != 1 {
		t.Fatalf("round trip wrong: %v", back)
	}
	if _, err := LoadObjectsCSV(dir + "/missing.csv"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFacadeMetricsExposed(t *testing.T) {
	if Euclidean.Name() != "euclidean" || Manhattan.Name() != "manhattan" || Chebyshev.Name() != "chebyshev" {
		t.Fatal("metric names")
	}
	q := mustObject(t, 0, [][]float64{{0, 0}}, nil)
	u := mustObject(t, 1, [][]float64{{1, 1}}, nil)
	v := mustObject(t, 2, [][]float64{{5, 5}}, nil)
	c := NewCheckerMetric(q, SSD, AllFilters, Manhattan)
	if !c.Dominates(u, v) {
		t.Fatal("L1 dominance")
	}
}

// The Index must support concurrent searches (each Search builds its own
// Checker); run with -race to verify.
func TestFacadeConcurrentSearch(t *testing.T) {
	ds := GenerateDataset(DatasetParams{N: 60, M: 6, Seed: 4})
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries(4, 4, 200, 5)
	done := make(chan []int, len(queries)*2)
	for i := 0; i < 2; i++ {
		for _, q := range queries {
			q := q
			go func() { done <- idx.Search(q, SSSD).IDs() }()
		}
	}
	var first []int
	for i := 0; i < len(queries)*2; i++ {
		ids := <-done
		if i == 0 {
			first = ids
		}
	}
	_ = first
}
