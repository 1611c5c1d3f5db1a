package core

import (
	"spatialdom/internal/distr"
	"spatialdom/internal/flow"
	"spatialdom/internal/geom"
	"spatialdom/internal/slab"
	"spatialdom/internal/uncertain"
)

// CheckScratch is the allocation arena behind a Checker: slab arenas for
// every cached artifact a search builds (distribution atoms, instance
// orders, per-object caches), the transport solver and bitset rows of the
// P-SD solves, and the ID map of the exported checker methods. Its size
// follows the objects a search examines, never their IDs. One scratch backs
// one live Checker at a time; Checker re-initializes it, releasing
// everything the previous search cached. The engine pools these alongside
// its other per-search scratch, which is what makes steady-state searches
// allocation-free: every slab reaches its high-water size and is then
// recycled verbatim.
//
// A CheckScratch is not safe for concurrent use.
type CheckScratch struct {
	// Arenas for plain-old-data caches: recycled without clearing, their
	// contents are fully overwritten before use.
	atoms  slab.Arena[distr.Atom] // objCache.runs and distQ
	insts  slab.Arena[int32]      // objCache.order
	masses slab.Arena[uint64]     // objCache.mass
	floats slab.Arena[float64]
	stats  slab.Arena[distr.Stat]
	// objCache.buckets
	buckets slab.Arena[distr.Bucket]

	// The arena whose elements hold pointers (objects): cleared on reset so
	// a pooled scratch never pins a finished search's object graph.
	caches slab.Arena[objCache]

	// The caches of the objects the exported methods were handed, by ID
	// (Checker.cacheOf). A search holds its caches by handle and leaves it
	// empty.
	byID map[int]*objCache

	// The second buffer of the merge that builds U_Q out of the sorted runs
	// (Checker.distQ) and, for P-SD, the keys the match witness sorts a wide
	// object's instances by, the transport solver of the exact test and the
	// bitset rows it is handed.
	mergeBuf  []distr.Atom
	orderKeys []orderKey
	transport flow.Transport
	sweepBits []uint64

	// Assorted reusable buffers.
	near        geom.Point   // the popped entry's near vector (band.dominatesRect)
	massN       []distr.Atom // its N_r under S-SD, one atom per query instance (band.massDominates)
	openU       []distr.Atom // the atoms of two objects in the buckets the mass rung leaves open (Checker.massOrder)
	openV       []distr.Atom
	failed      []int32   // the band members that fail their F-SD rows against it, under S-SD (band.dominatesRect)
	posFirstIdx []int     // the query's instance indices, positive mass first (massFirst)
	posFirst    []float64 // the query's instances in posFirstIdx order
	qMass       []uint64  // the query's integer masses

	checker Checker
}

// reset releases everything cached by the current checker so the scratch
// can back a new search. The pointer-bearing arena is zeroed; POD arenas are
// recycled as-is.
func (sc *CheckScratch) reset() {
	sc.atoms.Reset()
	sc.insts.Reset()
	sc.masses.Reset()
	sc.floats.Reset()
	sc.stats.Reset()
	sc.buckets.Reset()
	sc.caches.ResetZero()
	clear(sc.byID)
}

// newObjCache carves a zeroed per-object cache out of the arena.
func (sc *CheckScratch) newObjCache(o *uncertain.Object) *objCache {
	oc := &sc.caches.AllocZeroed(1)[0]
	oc.obj = o
	return oc
}

// Checker re-initializes the scratch for a new search and returns its
// checker, configured like NewCheckerMetric. The returned checker borrows
// every buffer from the scratch: it is valid until the next Checker call,
// and at most one checker per scratch is live at a time.
func (sc *CheckScratch) Checker(query *uncertain.Object, op Operator, cfg FilterConfig, m geom.Metric) *Checker {
	sc.reset()
	c := &sc.checker
	//nnc:allow scratch-escape: c is sc.checker, a field of the scratch itself; the back-pointer dies with the scratch
	c.scratch = sc
	c.query = query
	c.op = op
	c.cfg = cfg
	c.metric = m
	c.euclid = m == geom.Euclidean
	c.statCut = cfg.StatPruning && (op == SSD || op == SSSD || op == PSD)
	c.bk, c.bkPending = distr.Buckets{}, op == SSD && cfg.StatPruning
	c.qMBR = query.MBR()
	c.Stats = Stats{}
	sc.qMass = grow(sc.qMass, query.Len())
	c.qMass, c.qTotal = sc.qMass, distr.Masses(sc.qMass, query.Probs())
	sc.posFirstIdx, c.pos = massFirst(sc.posFirstIdx[:0], query)
	c.posFirstIdx = sc.posFirstIdx
	sc.posFirst = sc.posFirst[:0]
	for _, j := range c.posFirstIdx {
		sc.posFirst = append(sc.posFirst, query.Instance(j)...)
	}
	c.posFirst = sc.posFirst
	return c
}

// newSweepRows returns what Checker.sweep starts from: nu rows over nv
// demand atoms with every pair admissible, and the forbidden-prefix mask.
func (sc *CheckScratch) newSweepRows(nu, nv int) sweepRows {
	w := flow.RowWords(nv)
	sc.sweepBits = grow(sc.sweepBits, (nu+1)*w)
	r := sweepRows{w: w, adm: sc.sweepBits[:nu*w], out: sc.sweepBits[nu*w:]}
	for i := range r.adm {
		r.adm[i] = ^uint64(0)
	}
	if tail := uint(nv & 63); tail != 0 {
		for i := w - 1; i < len(r.adm); i += w {
			r.adm[i] = 1<<tail - 1
		}
	}
	return r
}

// grow returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
