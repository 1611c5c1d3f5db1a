package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// sameCandidates compares the stable part of two answers: IDs in rank
// order, exact keys and dominator counts. Volatile fields (elapsed,
// examined) are intentionally ignored — the cache stores encoded bodies,
// but the invalidation contract is about the candidate list.
func sameCandidates(a, b *Result) bool {
	if len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if ca.Object.ID() != cb.Object.ID() || ca.MinDist != cb.MinDist || ca.Dominators != cb.Dominators {
			return false
		}
	}
	return true
}

// Soundness: whenever the shield says an insert cannot affect a cached
// answer, re-running the search on an index containing the new object
// must reproduce the candidate list exactly — for every operator and for
// both near and far insert positions, so the test exercises shielded and
// unshielded geometry alike.
func TestShieldInsertSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	objs := randDataset(rng, 50, 2, 4, 60)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	shielded, unshielded := 0, 0
	nextID := 10000
	for trial := 0; trial < 6; trial++ {
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 60), 5)
		for _, op := range Operators {
			base := searchK(idx, q, op, k, SearchOptions{Filters: AllFilters})
			shield := NewAnswerShield(q, op, geom.Euclidean, k, base.Candidates)
			for ins := 0; ins < 12; ins++ {
				// Mix of placements: near the query (almost never
				// shielded), mid-range, and far outside the hot region
				// (usually shielded when the band is deep enough).
				var center geom.Point
				switch ins % 3 {
				case 0:
					center = randCenter(rng, 2, 60)
				case 1:
					center = geom.Point{rng.Float64()*40 + 100, rng.Float64()*40 + 100}
				default:
					center = geom.Point{rng.Float64()*200 + 400, rng.Float64()*200 + 400}
				}
				o := randObject(rng, nextID, 2, 3, center, 4)
				nextID++
				if !shield.ShieldsInsert(o.MBR()) {
					unshielded++
					continue
				}
				shielded++
				grown, err := NewIndex(append(append([]*uncertain.Object{}, objs...), o))
				if err != nil {
					t.Fatal(err)
				}
				fresh := searchK(grown, q, op, k, SearchOptions{Filters: AllFilters})
				if !sameCandidates(base, fresh) {
					t.Fatalf("op %v trial %d: shield approved insert id=%d at %v but answer changed:\nbase  %v\nfresh %v",
						op, trial, o.ID(), center, base.IDs(), fresh.IDs())
				}
			}
		}
	}
	if shielded == 0 {
		t.Fatal("shield never fired — test exercised nothing")
	}
	t.Logf("shielded %d inserts, invalidated %d", shielded, unshielded)
}

// The shield must always fire for an insert far beyond the candidate keys
// when the band is at least k deep — otherwise the cache would flush on
// every unrelated mutation and the serving tier's hit rate collapses.
func TestShieldInsertFarObjectShielded(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	objs := randDataset(rng, 40, 2, 4, 30)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(rng, 0, 2, 3, geom.Point{15, 15}, 3)
	res := searchK(idx, q, SSD, 2, SearchOptions{Filters: AllFilters})
	if len(res.Candidates) < 2 {
		t.Skip("band too shallow")
	}
	shield := NewAnswerShield(q, SSD, geom.Euclidean, 2, res.Candidates)
	far := geom.NewRect(geom.Point{1e6, 1e6}, geom.Point{1e6 + 1, 1e6 + 1})
	if !shield.ShieldsInsert(far) {
		t.Fatal("distant insert not shielded")
	}
	// An insert landing right on the query must never be shielded.
	near := geom.NewRect(geom.Point{14, 14}, geom.Point{16, 16})
	if shield.ShieldsInsert(near) {
		t.Fatal("insert on top of the query shielded")
	}
	// Dimension mismatch is conservatively unshielded.
	if shield.ShieldsInsert(geom.NewRect(geom.Point{0, 0, 0}, geom.Point{1, 1, 1})) {
		t.Fatal("dim-mismatched rect shielded")
	}
}

// Deletion rule: removing an object that is not among the answer's result
// IDs leaves the candidate list identical. This is the geometry-free half
// of the invalidation contract the front door relies on (see shield.go's
// header for the transitivity argument).
func TestShieldDeleteNonCandidateHarmless(t *testing.T) {
	rng := rand.New(rand.NewSource(903))
	objs := randDataset(rng, 45, 2, 4, 50)
	const k = 3
	for trial := 0; trial < 4; trial++ {
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 50), 4)
		for _, op := range Operators {
			idx, err := NewIndex(objs)
			if err != nil {
				t.Fatal(err)
			}
			base := searchK(idx, q, op, k, SearchOptions{Filters: AllFilters})
			inAnswer := map[int]bool{}
			for _, id := range base.IDs() {
				inAnswer[id] = true
			}
			removed := 0
			for _, o := range objs {
				if inAnswer[o.ID()] {
					continue
				}
				if !idx.Delete(o.ID()) {
					t.Fatalf("delete %d failed", o.ID())
				}
				removed++
				if removed == 10 {
					break
				}
			}
			fresh := searchK(idx, q, op, k, SearchOptions{Filters: AllFilters})
			if !sameCandidates(base, fresh) {
				t.Fatalf("op %v: deleting %d non-candidates changed the answer: %v -> %v",
					op, removed, base.IDs(), fresh.IDs())
			}
		}
	}
}

// Non-Euclidean shields fall back to the full instance set; soundness
// must hold there too.
func TestShieldInsertSoundnessManhattan(t *testing.T) {
	rng := rand.New(rand.NewSource(904))
	objs := randDataset(rng, 35, 2, 4, 40)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	opts := SearchOptions{Filters: AllFilters, Metric: geom.Manhattan}
	shieldedTotal := 0
	nextID := 20000
	for trial := 0; trial < 4; trial++ {
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 40), 4)
		base := searchK(idx, q, SSD, k, opts)
		shield := NewAnswerShield(q, SSD, geom.Manhattan, k, base.Candidates)
		for ins := 0; ins < 8; ins++ {
			center := geom.Point{rng.Float64()*500 + 200, rng.Float64()*500 + 200}
			if ins%2 == 0 {
				center = randCenter(rng, 2, 40)
			}
			o := randObject(rng, nextID, 2, 3, center, 3)
			nextID++
			if !shield.ShieldsInsert(o.MBR()) {
				continue
			}
			shieldedTotal++
			grown, err := NewIndex(append(append([]*uncertain.Object{}, objs...), o))
			if err != nil {
				t.Fatal(err)
			}
			fresh := searchK(grown, q, SSD, k, opts)
			if !sameCandidates(base, fresh) {
				t.Fatalf("manhattan trial %d: shielded insert changed answer %v -> %v",
					trial, base.IDs(), fresh.IDs())
			}
		}
	}
	if shieldedTotal == 0 {
		t.Fatal("manhattan shield never fired")
	}
}

// F+SD quantifies over the whole query MBR, not the query instances: when
// the query's instances spread wider than the gaps in the data, k
// candidates can rect-dominate an inserted MBR with respect to every
// instance and still not F+SD-dominate it, so the new object is a
// candidate. The shield must ask the answer's own operator; asking the
// instances whatever the operator left such answers cached.
func TestShieldInsertSoundnessWideQueryFPlusSD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spot := func(half float64) geom.Point {
		return geom.Point{(rng.Float64()*2 - 1) * half, (rng.Float64()*2 - 1) * half}
	}
	objs := make([]*uncertain.Object, 200)
	for i := range objs {
		objs[i] = randObject(rng, i+1, 2, 4, spot(300), 25)
	}
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	shielded := 0
	for iter := 0; iter < 400; iter++ {
		q := randObject(rng, 0, 2, 3, spot(50), 120)
		checker := NewChecker(q, FPlusSD, AllFilters)
		for k := 1; k <= 2; k++ {
			base := searchK(idx, q, FPlusSD, k, SearchOptions{Filters: AllFilters})
			shield := NewAnswerShield(q, FPlusSD, geom.Euclidean, k, base.Candidates)
			for ins := 0; ins < 20; ins++ {
				o := randObject(rng, 10000, 2, 4, spot(300), 25)
				if !shield.ShieldsInsert(o.MBR()) {
					continue
				}
				shielded++
				dominators := 0
				for _, u := range objs {
					if checker.Dominates(u, o) {
						dominators++
					}
				}
				if dominators < k {
					t.Fatalf("iteration %d k=%d insert %d: shielded object at %v has %d dominators — it is a candidate, the cached answer is stale",
						iter, k, ins, o.MBR(), dominators)
				}
				for _, c := range base.Candidates {
					if checker.Dominates(o, c.Object) {
						t.Fatalf("iteration %d k=%d insert %d: shielded object dominates candidate %d", iter, k, ins, c.Object.ID())
					}
				}
			}
		}
	}
	if shielded == 0 {
		t.Fatal("shield never fired — test exercised nothing")
	}
	t.Logf("shielded %d of %d inserts", shielded, 400*2*20)
}

// shieldsInsertLoop is ShieldsInsert without the radius: condition 1, then
// the Theorem 4 loop over every candidate MBR. It is the oracle the radius
// must agree with, verdict for verdict.
func (s *AnswerShield) shieldsInsertLoop(r geom.Rect) bool {
	if len(r.Lo) != len(s.qMBR.Lo) {
		return false
	}
	if s.metric.RectMinDist(r, s.qMBR) <= s.maxKey {
		return false
	}
	count := 0
	for _, c := range s.band {
		if dom, _ := s.dominates(c.Object.MBR(), r); dom {
			count++
			if count >= s.k {
				return true
			}
		}
	}
	return false
}

// The radius only answers sooner: on random, far, point, touching,
// radius-edge and non-finite rectangles, over every operator, k in
// {1, 2, 4}, d in {2, 3} and the L2, L1 and L∞ metrics, ShieldsInsert
// equals the loop it skips. The
// search's band, built from the same candidates, keeps the k-th smallest
// reach over its instances, never beyond the shield's MBR radius, and its
// stopping test never passes a rectangle the band does not dominate — on
// the shield's probes and on rectangles keyed within a few ulps of the
// band's own radius, a key exactly at it included.
func TestShieldRadiusMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(905))
	var total, passed, byRadius, edges, kept, cuts, atRadius, undominatedAtRadius int
	for _, d := range []int{2, 3} {
		idx, err := NewIndex(randDataset(rng, 150, d, 6, 100))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range Operators {
			for _, k := range []int{1, 2, 4} {
				for trial := 0; trial < 5; trial++ {
					m := geom.Euclidean
					switch trial { // off L2 farK is +Inf: the loop decides every rect
					case 3:
						m = geom.Manhattan
					case 4:
						m = geom.Chebyshev
					}
					q := randObject(rng, 0, d, 1+rng.Intn(5), randCenter(rng, d, 100), 1+rng.Float64()*8)
					base := searchK(idx, q, op, k, SearchOptions{Filters: AllFilters, Metric: m})
					s := NewAnswerShield(q, op, m, k, base.Candidates)
					c := NewCheckerMetric(q, op, AllFilters, m)
					b := band{radius: math.Inf(1)} // as searchBackend starts it
					for _, cand := range base.Candidates {
						b.push(c, c.summaryOf(cand.Object), k)
					}
					if want := bandRadius(c, base.Candidates, k); b.radius != want || b.radius > s.farK {
						t.Fatalf("d=%d %v k=%d %v: band radius %v, want %v within the shield's %v",
							d, op, k, m, b.radius, want, s.farK)
					}
					for i := 0; i < 1900; i++ {
						r, edge := shieldProbe(rng, s, i)
						if i >= 1700 {
							r, edge = atBandRadius(rng, s.qMBR, b.radius), false
						}
						got, want := s.ShieldsInsert(r), s.shieldsInsertLoop(r)
						if got != want {
							t.Fatalf("d=%d %v k=%d %v: rect %v: radius verdict %v, loop %v (farK %v, near %v)",
								d, op, k, m, r, got, want, s.farK, m.RectMinDist(r, s.qMBR))
						}
						key := m.RectMinDist(r, s.qMBR) // the engine's heap key for r
						if b.beyond(key) {
							cuts++
							if !b.dominatesRect(c, r, k) {
								t.Fatalf("d=%d %v k=%d %v: rect %v keyed %v passes the radius %v but is not dominated",
									d, op, k, m, r, key, b.radius)
							}
						}
						if key == b.radius {
							atRadius++
							if !b.dominatesRect(c, r, k) {
								undominatedAtRadius++
							}
						}
						total++
						if got {
							kept++
						}
						if m.RectMinDist(r, s.qMBR) > s.maxKey {
							passed++
							if s.euclid && m.RectMinDist(r, s.qMBR) > s.farK {
								byRadius++
							}
							if edge {
								edges++
							}
						}
					}
				}
			}
		}
	}
	if edges == 0 || byRadius == 0 {
		t.Fatalf("the radius edge was never reached (%d edge rects, %d decided by radius)", edges, byRadius)
	}
	if cuts == 0 || undominatedAtRadius == 0 {
		t.Fatalf("the band's stopping test was never tested at its edge (%d past the radius, %d keyed at it, %d of those undominated)",
			cuts, atRadius, undominatedAtRadius)
	}
	t.Logf("%d rects agree, %d shielded; %d pass condition 1, the radius decides %d of them (%.0f%%); %d within 1 ulp of farK",
		total, kept, passed, byRadius, 100*float64(byRadius)/float64(passed), edges)
	t.Logf("the band's radius passes %d rects, all dominated; %d keyed exactly at it, %d of those undominated",
		cuts, atRadius, undominatedAtRadius)
}

// bandRadius is the band's stopping radius written from its definition:
// the k-th smallest, over the candidates, of the largest distance from a
// query instance to a positive-mass instance — +Inf with fewer than k
// candidates, under F+SD and off the Euclidean metric.
func bandRadius(c *Checker, cands []Candidate, k int) float64 {
	if c.op == FPlusSD || !c.euclid || len(cands) < k {
		return math.Inf(1)
	}
	var reach []float64
	for _, cand := range cands {
		u, far := cand.Object, math.Inf(-1)
		for t := range c.posFirstLen() {
			q := c.posFirstPt(t)
			for i := 0; i < u.Len(); i++ {
				if u.Prob(i) > 0 {
					far = max(far, geom.Dist(q, u.Instance(i)))
				}
			}
		}
		reach = append(reach, far)
	}
	slices.Sort(reach)
	return reach[k-1]
}

// atBandRadius draws a rectangle that overlaps the query MBR in every
// dimension but one and sits the band's radius beyond it there, nudged a
// few ulps either way (a random box when the radius is infinite).
func atBandRadius(rng *rand.Rand, q geom.Rect, radius float64) geom.Rect {
	d := len(q.Lo)
	r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	for j := range r.Lo {
		r.Lo[j], r.Hi[j] = q.Lo[j]-rng.Float64(), q.Hi[j]+rng.Float64()
	}
	if math.IsInf(radius, 1) {
		return r
	}
	j := rng.Intn(d)
	r.Lo[j] = q.Hi[j] + radius
	for n := rng.Intn(7) - 3; n != 0; {
		if n > 0 {
			r.Lo[j], n = math.Nextafter(r.Lo[j], math.Inf(1)), n-1
		} else {
			r.Lo[j], n = math.Nextafter(r.Lo[j], math.Inf(-1)), n+1
		}
	}
	r.Hi[j] = r.Lo[j] + rng.Float64()*10
	return r
}

// shieldProbe draws the i-th test rectangle for s, cycling through six
// shapes. edge reports a rect whose distance to the query MBR is within one
// ulp of s.farK.
func shieldProbe(rng *rand.Rand, s *AnswerShield, i int) (r geom.Rect, edge bool) {
	q := s.qMBR
	d := len(q.Lo)
	around := func() geom.Rect { // overlapping q in every dimension
		r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
		for j := range r.Lo {
			r.Lo[j], r.Hi[j] = q.Lo[j]-rng.Float64(), q.Hi[j]+rng.Float64()
		}
		return r
	}
	box := func(spread, width float64) geom.Rect {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for j := range lo {
			lo[j] = q.Lo[j] + (rng.Float64()*2-1)*spread
			hi[j] = lo[j] + rng.Float64()*width
		}
		return geom.Rect{Lo: lo, Hi: hi}
	}
	switch i % 6 {
	case 0: // near the query, or anywhere in the data
		if rng.Intn(2) == 0 {
			return box(25, 5), false
		}
		return box(150, 20), false
	case 1: // far away
		return box(2000, 50), false
	case 2: // a point
		r = box(300, 0)
		copy(r.Hi, r.Lo)
		return r, false
	case 3: // touching the query MBR
		r = around()
		j := rng.Intn(d)
		if rng.Intn(2) == 0 {
			r.Lo[j], r.Hi[j] = q.Hi[j], q.Hi[j]+rng.Float64()*20
		} else {
			r.Lo[j], r.Hi[j] = q.Lo[j]-rng.Float64()*20, q.Lo[j]
		}
		return r, false
	case 4: // on the radius: overlap q in every dimension but one, and sit
		// farK beyond it there, nudged a few ulps either way
		if math.IsInf(s.farK, 1) {
			return box(150, 20), false
		}
		r = around()
		j := rng.Intn(d)
		r.Lo[j] = q.Hi[j] + s.farK
		for n := rng.Intn(7) - 3; n != 0; {
			if n > 0 {
				r.Lo[j], n = math.Nextafter(r.Lo[j], math.Inf(1)), n-1
			} else {
				r.Lo[j], n = math.Nextafter(r.Lo[j], math.Inf(-1)), n+1
			}
		}
		r.Hi[j] = r.Lo[j] + rng.Float64()*5
		near := r.MinDistRect(q)
		return r, near == s.farK || near == math.Nextafter(s.farK, 0) || near == math.Nextafter(s.farK, math.Inf(1))
	default: // a non-finite coordinate, near or far
		r = box(150, 20)
		if rng.Intn(2) == 0 {
			r = box(2000, 50)
		}
		j := rng.Intn(d)
		switch rng.Intn(6) {
		case 0:
			r.Lo[j] = math.NaN()
		case 1:
			r.Hi[j] = math.NaN()
		case 2:
			r.Lo[j] = math.Inf(-1)
		case 3:
			r.Hi[j] = math.Inf(1)
		case 4:
			r.Lo[j], r.Hi[j] = math.Inf(1), math.Inf(1)
		default:
			r.Lo[j], r.Hi[j] = math.Inf(-1), math.Inf(-1)
		}
		return r, false
	}
}

// The key order at an ulp (Checker.sd). Under L2, F+SD's per-dimension
// sums accept U over V although U's distance to the query rounds one ulp
// above V's, so no verdict lets U dominate V: the search and the oracle
// agree on {U, V}, and a shield over the answer on {V} that keeps it when
// U is inserted keeps what the search then returns.
func TestShieldInsertKeyOrderAtAnUlp(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	u := uncertain.MustNew(1, []geom.Point{{6.227283173637045, 3.696928436398219}}, nil)
	v := uncertain.MustNew(2, []geom.Point{{2.368225468054852, 6.843817919916428}}, nil)
	c := NewChecker(q, FPlusSD, AllFilters)
	if du, dv := c.MinPairDist(u), c.MinPairDist(v); du != math.Nextafter(dv, math.Inf(1)) || !geom.FSDMBR(u.MBR(), v.MBR(), q.MBR()) {
		t.Fatalf("keys %v and %v are not an ulp apart under an F+SD verdict", du, dv)
	}
	if c.Dominates(u, v) {
		t.Fatal("U dominates V with the larger key")
	}
	onV, err := NewIndex([]*uncertain.Object{v})
	if err != nil {
		t.Fatal(err)
	}
	onUV, err := NewIndex([]*uncertain.Object{u, v})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		base := searchK(onV, q, FPlusSD, k, SearchOptions{Filters: AllFilters})
		after := searchK(onUV, q, FPlusSD, k, SearchOptions{Filters: AllFilters})
		want := idsOf(BruteForceK([]*uncertain.Object{u, v}, q, FPlusSD, k, AllFilters))
		if got := idsOf(after.Objects()); !slices.Equal(got, want) {
			t.Fatalf("k=%d: search %v, oracle %v", k, got, want)
		}
		if NewAnswerShield(q, FPlusSD, geom.Euclidean, k, base.Candidates).ShieldsInsert(u.MBR()) && !sameCandidates(base, after) {
			t.Fatalf("k=%d: the shield kept %v, the search after the insert gives %v", k, base.IDs(), after.IDs())
		}
	}
}

// The rule table's twin whose squares differ and distances do not
// (TestFilterConfigsAgreeAtTheRule), against the shield: V is U moved by an
// ulp in each coordinate, every distance from a query instance rounds to
// U's, and under L2 U's far squares lie below V's near squares at a query
// instance. So neither object dominates the other, and V's insert joins a
// k = 1 answer holding U (under F-SD each dominates the other: the answer
// changes too). Condition 1 already refuses V, whose key is U's; condition
// 2, the rectangle predicate in distances, must refuse it on its own too.
func TestShieldInsertTwinAtTheSquares(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {200, 0}, {100, 200}, {54.20342084195679, 54.78224869580793}}, nil)
	u := uncertain.MustNew(1, []geom.Point{{57.136106947917895, 57.57760358006369}}, nil)
	v := uncertain.MustNew(2, []geom.Point{{57.13610694791789, 57.577603580063695}}, nil)
	squaresApart := false
	for j := range q.Len() {
		p := q.Instance(j)
		if u.MBR().MaxDistPoint(p) != v.MBR().MinDistPoint(p) {
			t.Fatalf("the twin's distances from %v differ", p)
		}
		squaresApart = squaresApart || u.MBR().MaxSqDistPoint(p) < v.MBR().MinSqDistPoint(p)
	}
	if !squaresApart {
		t.Fatal("the twin's squares are equal at every query instance")
	}
	onU, err := NewIndex([]*uncertain.Object{u})
	if err != nil {
		t.Fatal(err)
	}
	onUV, err := NewIndex([]*uncertain.Object{u, v})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Operator{SSD, SSSD, PSD, FSD} {
		base := searchK(onU, q, op, 1, SearchOptions{Filters: AllFilters})
		if after := searchK(onUV, q, op, 1, SearchOptions{Filters: AllFilters}); sameCandidates(base, after) {
			t.Fatalf("%v: inserting the twin left the answer %v unchanged", op, base.IDs())
		}
		s := NewAnswerShield(q, op, geom.Euclidean, 1, base.Candidates)
		if s.ShieldsInsert(v.MBR()) {
			t.Fatalf("%v: the answer on U shields its twin's insert", op)
		}
		if dom, _ := s.dominates(u.MBR(), v.MBR()); dom {
			t.Fatalf("%v: U's MBR dominates its twin's under the shield's predicate", op)
		}
	}
}

// A shield holds every query instance, those of positive mass first, and
// the query's MBR in a slab of its own — equal to the query's, sharing none
// of its memory, so a kept answer does not pin the query — under every
// metric and operator, and Bytes counts its header and slab exactly.
func TestShieldOwnSlab(t *testing.T) {
	if unsafe.Sizeof(AnswerShield{}) != shieldHeaderBytes {
		t.Fatalf("AnswerShield is %d bytes; Bytes counts %d", unsafe.Sizeof(AnswerShield{}), shieldHeaderBytes)
	}
	rng := rand.New(rand.NewSource(17))
	pts := randObject(rng, 0, 2, 9, geom.Point{15, 15}, 3).Points()
	q := uncertain.MustNew(0, pts, []float64{1, 0, 2, 1, 0, 3, 1, 1, 0})
	want := []int{0, 2, 3, 5, 6, 7, 1, 4, 8}
	for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
		s := NewAnswerShield(q, PSD, m, 2, nil)
		if s.posFirstLen() != len(want) || s.pos != 6 {
			t.Fatalf("%s: %d points, %d of positive mass; want %d, 6", m.Name(), s.posFirstLen(), s.pos, len(want))
		}
		for i, j := range want {
			if !slices.Equal(s.posFirstPt(i), q.Instance(j)) {
				t.Fatalf("%s: point %d is not a copy of instance %d", m.Name(), i, j)
			}
			for k := 0; k < q.Len(); k++ {
				if &s.posFirstPt(i)[0] == &q.Instance(k)[0] {
					t.Fatalf("%s: point %d views instance %d", m.Name(), i, k)
				}
			}
		}
		if !s.qMBR.Equal(q.MBR()) || &s.qMBR.Lo[0] == &q.MBR().Lo[0] || &s.qMBR.Hi[0] == &q.MBR().Hi[0] {
			t.Fatalf("%s: the MBR is not a copy of the query's", m.Name())
		}
		if got := s.Bytes(); got != shieldHeaderBytes+int64(len(want)+2)*int64(q.Dim())*8 {
			t.Fatalf("%s: Bytes %d", m.Name(), got)
		}
	}
}
