package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestDominanceGraphAgreesWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for iter := 0; iter < 5; iter++ {
		objs := randDataset(rng, 25, 2, 4, 60)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 60), 3)
		for _, op := range []Operator{SSD, SSSD, PSD} {
			g := BuildDominanceGraph(objs, q, op, AllFilters)
			want := idx.Search(q, op).IDs()
			sort.Ints(want)
			var got []int
			for _, o := range g.Candidates() {
				got = append(got, o.ID())
			}
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("%v: graph candidates %v, search %v", op, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: graph candidates %v, search %v", op, got, want)
				}
			}
			// Dominator counts agree with SearchK bands.
			counts := g.DominatorCount()
			for _, k := range []int{2, 3} {
				bandWant := searchK(idx, q, op, k, SearchOptions{Filters: AllFilters}).IDs()
				sort.Ints(bandWant)
				var bandGot []int
				for i, c := range counts {
					if c < k {
						bandGot = append(bandGot, objs[i].ID())
					}
				}
				sort.Ints(bandGot)
				if len(bandGot) != len(bandWant) {
					t.Fatalf("%v k=%d: graph band %v, SearchK %v", op, k, bandGot, bandWant)
				}
			}
		}
	}
}

func TestDominanceGraphDOT(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	objs := randDataset(rng, 10, 2, 3, 40)
	objs[0].SetLabel("alpha")
	q := randObject(rng, 0, 2, 2, randCenter(rng, 2, 40), 2)
	g := BuildDominanceGraph(objs, q, SSD, AllFilters)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph SSD", "alpha", "shape=box", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// Every printed edge must be a real dominance (spot check by parsing).
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.Contains(line, "->") {
			continue
		}
		var a, b int
		if _, err := fmt.Sscanf(line, "n%d -> n%d;", &a, &b); err != nil {
			t.Fatalf("unparseable edge %q: %v", line, err)
		}
		ia, ib := -1, -1
		for i, o := range objs {
			if o.ID() == a {
				ia = i
			}
			if o.ID() == b {
				ib = i
			}
		}
		if ia < 0 || ib < 0 || !g.Dominates[ia][ib] {
			t.Fatalf("edge %d->%d not in relation", a, b)
		}
	}
}
