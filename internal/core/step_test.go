package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// TestBandStepMatchesMergeAndSearch walks random insert/delete sequences
// for every operator under L2, L1 and L∞ at k 1–8, keeping a tracked band
// the way the front door does: a basis cut from a search at k plus a spare,
// every insert folded in, a delete of a basis member spending the spare,
// and the band re-seeded once the spare is gone. After every write the
// band's answer must equal, candidate for candidate (IDs, order, MinDist
// bits, Dominators), both MergeShardBands over the tracked set and a fresh
// search over the live dataset, and every out member's count must be its
// dominator count over the tracked set. Some inserts copy a live object, so
// keys tie (copyOf), and tied answers are compared as strictly as any.
func TestBandStepMatchesMergeAndSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("random band walks")
	}
	rng := rand.New(rand.NewSource(61))
	metrics := []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chebyshev}
	var steps, seeds, tied, tracked int
	for _, op := range Operators {
		for _, m := range metrics {
			for walk := 0; walk < 3; walk++ {
				w := newBandWalk(t, rng, op, m)
				w.run(rng, 50)
				steps += w.steps
				seeds += w.seeds
				tied += w.tied
				tracked += w.deletesTracked
			}
		}
	}
	t.Logf("%d steps, %d seeds, %d tied answers compared, %d deletes of tracked objects", steps, seeds, tied, tracked)
	if tied == 0 || tracked == 0 {
		t.Fatalf("no answer was tied (%d) or no tracked object was deleted (%d)", tied, tracked)
	}
}

// bandWalk is one walk's state: the live dataset, the tracked band, which
// of its members belong to the basis, and the spare left.
type bandWalk struct {
	t      *testing.T
	op     Operator
	k      int
	opts   SearchOptions
	q      *uncertain.Object
	live   []*uncertain.Object
	nextID int

	band  TrackedBand
	base  map[int]bool // the tracked members of the basis, by ID
	spare int

	steps, seeds, tied, deletesTracked int
}

func newBandWalk(t *testing.T, rng *rand.Rand, op Operator, m geom.Metric) *bandWalk {
	w := &bandWalk{t: t, op: op, k: 1 + rng.Intn(8), nextID: 1}
	w.opts = SearchOptions{Metric: m, Filters: AllFilters}
	if rng.Intn(3) == 0 {
		w.opts.Filters = FilterConfig{}
	}
	for range 30 {
		w.live = append(w.live, w.object(rng))
	}
	qpts := make([]geom.Point, 1+rng.Intn(3))
	for i := range qpts {
		qpts[i] = geom.Point{40 + rng.Float64()*20, 40 + rng.Float64()*20}
	}
	w.q = uncertain.MustNew(0, qpts, nil)
	w.seed(rng)
	return w
}

// object draws a fresh object of 1–4 instances around a random centre.
func (w *bandWalk) object(rng *rand.Rand) *uncertain.Object {
	cx, cy := rng.Float64()*100, rng.Float64()*100
	pts := make([]geom.Point, 1+rng.Intn(4))
	probs := make([]float64, len(pts))
	for i := range pts {
		pts[i] = geom.Point{cx + rng.Float64()*12, cy + rng.Float64()*12}
		probs[i] = 0.1 + rng.Float64()
	}
	w.nextID++
	return uncertain.MustNew(w.nextID, pts, probs)
}

// copyOf is a new object whose key ties src's: src's instances, and half
// the time one more far beyond them, which makes the pair one-way.
func (w *bandWalk) copyOf(rng *rand.Rand, src *uncertain.Object) *uncertain.Object {
	pts, probs := src.Points(), src.Probs()
	if rng.Intn(2) == 0 {
		pts = append(slices.Clone(pts), geom.Point{1000, 1000})
		probs = append(slices.Clone(probs), 0.25)
	}
	w.nextID++
	return uncertain.MustNew(w.nextID, pts, probs)
}

// seed cuts a new basis as a widened fill does: the answer of a search at
// k, and beside it the other candidates of a search at k plus a fresh
// spare, with their counts.
func (w *bandWalk) seed(rng *rand.Rand) {
	w.seeds++
	w.spare = rng.Intn(4)
	w.band = TrackedBand{Answer: w.search(w.k).Candidates}
	w.base = map[int]bool{}
	for _, c := range w.band.Answer {
		w.base[c.Object.ID()] = true
	}
	for _, c := range w.search(w.k + w.spare).Candidates {
		if !w.base[c.Object.ID()] {
			w.base[c.Object.ID()] = true
			w.band.Out = append(w.band.Out, c.Object)
			w.band.OutDominators = append(w.band.OutDominators, int32(c.Dominators))
		}
	}
}

func (w *bandWalk) search(k int) *Result {
	idx, err := NewIndex(w.live)
	if err != nil {
		w.t.Fatal(err)
	}
	res, err := idx.SearchKCtx(context.Background(), w.q, w.op, k, w.opts)
	if err != nil {
		w.t.Fatal(err)
	}
	return res
}

func (w *bandWalk) trackedSet() []*uncertain.Object {
	set := slices.Clone(w.band.Out)
	for _, c := range w.band.Answer {
		set = append(set, c.Object)
	}
	return set
}

func (w *bandWalk) run(rng *rand.Rand, writes int) {
	for i := 0; i < writes; i++ {
		var adds []*uncertain.Object
		var drop []int
		switch set := w.trackedSet(); {
		case rng.Intn(2) == 0 || len(w.live) < 5:
			o := w.object(rng)
			if rng.Intn(6) == 0 {
				o = w.copyOf(rng, w.live[rng.Intn(len(w.live))])
			}
			w.live = append(w.live, o)
			adds = append(adds, o)
		default:
			x := w.live[rng.Intn(len(w.live))]
			if rng.Intn(2) == 0 {
				x = set[rng.Intn(len(set))]
			}
			w.live = slices.DeleteFunc(w.live, func(o *uncertain.Object) bool { return o == x })
			if !slices.Contains(set, x) {
				break // outside the basis: it lifts nothing
			}
			w.deletesTracked++
			if w.base[x.ID()] {
				delete(w.base, x.ID())
				if w.spare--; w.spare < 0 {
					w.seed(rng)
					w.check(fmt.Sprintf("write %d, re-seeded", i))
					continue
				}
			}
			drop = append(drop, x.ID())
		}
		if adds != nil || drop != nil {
			w.band, _ = StepBand(w.q, w.op, w.k, w.opts, w.band, adds, drop)
			w.steps++
		}
		w.check(fmt.Sprintf("write %d", i))
	}
}

// check holds the band to MergeShardBands over the tracked set, to a fresh
// search over the live set, and its out counts to the checker.
func (w *bandWalk) check(at string) {
	w.t.Helper()
	name := fmt.Sprintf("%v %s k=%d filters=%+v, %s", w.op, w.opts.Metric.Name(), w.k, w.opts.Filters, at)
	merged, err := MergeShardBands(context.Background(), w.q, w.op, w.k, w.opts, [][]*uncertain.Object{w.trackedSet()})
	if err != nil {
		w.t.Fatal(err)
	}
	equalAnswers(w.t, name+": step vs merge", w.band.Answer, merged.Candidates)
	equalAnswers(w.t, name+": step vs search", w.band.Answer, w.search(w.k).Candidates)
	for i := 1; i < len(w.band.Answer); i++ {
		if w.band.Answer[i].MinDist == w.band.Answer[i-1].MinDist {
			w.tied++
			break
		}
	}
	c := NewCheckerMetric(w.q, w.op, w.opts.Filters, w.opts.Metric)
	set := w.trackedSet()
	for i, o := range w.band.Out {
		n := 0
		for _, u := range set {
			if u != o && c.Dominates(u, o) {
				n++
			}
		}
		if int(w.band.OutDominators[i]) != n || n < w.k {
			w.t.Fatalf("%s: out member %d counts %d dominators, the tracked set holds %d (k=%d)",
				name, o.ID(), w.band.OutDominators[i], n, w.k)
		}
	}
}

// equalAnswers requires got to be want candidate for candidate, ties
// included.
func equalAnswers(t *testing.T, name string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Object.ID() != w.Object.ID() || g.Rank != w.Rank || g.Dominators != w.Dominators ||
			math.Float64bits(g.MinDist) != math.Float64bits(w.MinDist) {
			t.Fatalf("%s: candidate %d is {%d %d %x %d}, want {%d %d %x %d}", name, i,
				g.Object.ID(), g.Rank, math.Float64bits(g.MinDist), g.Dominators,
				w.Object.ID(), w.Rank, math.Float64bits(w.MinDist), w.Dominators)
		}
	}
}
