package harness

import (
	"bytes"
	"strings"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
)

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"tiny": Tiny, "small": Small, "medium": Medium, "paper": Paper} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestFiguresListAndDispatch(t *testing.T) {
	if len(Figures()) != 18 {
		t.Fatalf("figure list = %v", Figures())
	}
	if _, err := FigureTables("99", Tiny, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// Every figure must render at Tiny scale and carry its operator columns.
func TestAllFiguresRenderTiny(t *testing.T) {
	for _, fig := range Figures() {
		tables, err := FigureTables(fig, Tiny, 42)
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		var buf bytes.Buffer
		for i := range tables {
			if err := tables[i].WriteText(&buf); err != nil {
				t.Fatalf("figure %s: %v", fig, err)
			}
		}
		out := buf.String()
		if len(out) == 0 {
			t.Fatalf("figure %s produced no output", fig)
		}
		switch fig {
		case "14":
			if !strings.Contains(out, "%candidates") {
				t.Fatalf("figure 14 missing progressive header:\n%s", out)
			}
		case "16":
			for _, label := range []string{"BF", "All-L", "avg time (ms)", "avg instance comparisons"} {
				if !strings.Contains(out, label) {
					t.Fatalf("figure 16 missing config %s:\n%s", label, out)
				}
			}
		default:
			for _, op := range []string{"SSD", "SSSD", "PSD", "FSD", "F+SD"} {
				if !strings.Contains(out, op) {
					t.Fatalf("figure %s missing operator %s:\n%s", fig, op, out)
				}
			}
		}
	}
}

// The headline effectiveness result: candidate counts grow along the cover
// chain, and PSD stays well below FSD/F+SD.
func TestCandidateOrderingAcrossOperators(t *testing.T) {
	sp := specFor(Tiny)
	ds := datagen.Generate(datagen.Params{N: 300, M: 8, EdgeLen: 500, Centers: datagen.AntiCorrelated, Seed: 5})
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries(5, sp.Mq, sp.Hq, 99)
	var prev float64 = -1
	results := map[core.Operator]float64{}
	for _, op := range core.Operators {
		m := RunWorkload(idx, queries, op, core.AllFilters)
		if m.Candidates < prev-1e-9 {
			t.Fatalf("%v has fewer candidates (%g) than a weaker operator (%g)", op, m.Candidates, prev)
		}
		prev = m.Candidates
		results[op] = m.Candidates
	}
	if results[core.FPlusSD] < results[core.SSD] {
		t.Fatalf("F+SD (%g) must not beat SSD (%g)", results[core.FPlusSD], results[core.SSD])
	}
}

// The ablation must show the full filter stack doing no more comparisons
// than brute force.
func TestAblationReducesComparisons(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 200, M: 8, EdgeLen: 400, Centers: datagen.HouseLike, Seed: 6})
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries(3, 4, 200, 17)
	for _, op := range []core.Operator{core.SSD, core.SSSD, core.PSD} {
		bf := RunWorkload(idx, queries, op, core.FilterConfig{})
		all := RunWorkload(idx, queries, op, core.AllFilters)
		if all.Comparisons > bf.Comparisons {
			t.Fatalf("%v: filters increase comparisons (%g > %g)", op, all.Comparisons, bf.Comparisons)
		}
		if all.Candidates != bf.Candidates {
			t.Fatalf("%v: filters changed candidate count (%g vs %g)", op, all.Candidates, bf.Candidates)
		}
	}
}

// Progressive measurements must be monotone in both axes and end at 100%.
func TestProgressiveShape(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 250, M: 6, EdgeLen: 400, Centers: datagen.Clustered, Clusters: 10, Seed: 8})
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries(3, 4, 200, 31)
	points := Progressive(idx, queries)
	if len(points) != 10 {
		t.Fatalf("%d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Fraction < points[i-1].Fraction-1e-9 {
			t.Fatal("fractions not monotone")
		}
		if points[i].TimeFrac < points[i-1].TimeFrac-1e-9 {
			t.Fatal("time fractions not monotone")
		}
	}
	last := points[len(points)-1]
	if last.Fraction < 0.999 {
		t.Fatalf("final fraction %g, want 1", last.Fraction)
	}
	if last.TimeFrac > 1.0+1e-9 {
		t.Fatalf("final time fraction %g > 1", last.TimeFrac)
	}
}
