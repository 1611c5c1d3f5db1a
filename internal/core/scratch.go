package core

import (
	"spatialdom/internal/distr"
	"spatialdom/internal/flow"
	"spatialdom/internal/geom"
	"spatialdom/internal/slab"
	"spatialdom/internal/uncertain"
)

// CheckScratch is the allocation arena behind a Checker: slab arenas for
// every cached artifact a search builds (distribution atoms and the
// instance order of sorted runs, per-object caches), the
// transport solver and bitset rows of the P-SD solves, and the ID map of
// the exported checker methods. Its size follows the objects a search
// examines, never their IDs. One scratch backs one live Checker at a time;
// Checker re-initializes it, releasing everything the previous search
// cached. The engine pools these alongside its other per-search scratch,
// which is what makes steady-state searches allocation-free: every slab
// reaches its high-water size and is then recycled verbatim.
//
// A CheckScratch is not safe for concurrent use.
type CheckScratch struct {
	// Arenas for plain-old-data caches: recycled without clearing, their
	// contents are fully overwritten before use.
	pairs  distr.PairArena
	insts  slab.Arena[int32] // objCache.runInst
	floats slab.Arena[float64]
	stats  slab.Arena[distr.Stat]

	// The arena whose elements hold pointers (objects): cleared on reset so
	// a pooled scratch never pins a finished search's object graph.
	caches slab.Arena[objCache]

	// The caches of the objects the exported methods were handed, by ID
	// (Checker.cacheOf). A search holds its caches by handle and leaves it
	// empty.
	byID map[int]*objCache

	// The sorter of the sweep's runs, the second buffer of the merge that
	// builds U_Q out of them (Checker.distQ) and, for P-SD, the keys the
	// match witness sorts a wide object's instances by, the transport solver
	// of the exact test and the bitset rows it is handed.
	runSorter distr.RunSorter
	mergeBuf  []distr.Pair
	orderKeys []orderKey
	transport flow.Transport
	sweepBits []uint64

	// Assorted reusable buffers.
	near    geom.Point   // the popped entry's near vector (band.dominatesRect)
	hullIdx []int        // non-geometric fallback hull index list
	hullPts []geom.Point // hull instances of the current query
	isHull  []bool       // per query instance: whether it is one of them

	checker Checker
}

// reset releases everything cached by the current checker so the scratch
// can back a new search. The pointer-bearing arena is zeroed; POD arenas are
// recycled as-is.
func (sc *CheckScratch) reset() {
	sc.pairs.Reset()
	sc.insts.Reset()
	sc.floats.Reset()
	sc.stats.Reset()
	sc.caches.ResetZero()
	clear(sc.byID)
	clear(sc.hullPts[:cap(sc.hullPts)]) // drop references to the previous query
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
	c.qMBR = query.MBR()
	c.Stats = Stats{}
	if cfg.Geometric && c.euclid {
		c.hullIdx = query.HullIndices()
	} else {
		sc.hullIdx = growInts(sc.hullIdx, query.Len())
		for i := range sc.hullIdx {
			sc.hullIdx[i] = i
		}
		c.hullIdx = sc.hullIdx
	}
	sc.hullPts = growPoints(sc.hullPts, len(c.hullIdx))
	sc.isHull = growBools(sc.isHull, query.Len())
	clear(sc.isHull)
	for i, j := range c.hullIdx {
		sc.hullPts[i] = query.Instance(j)
		sc.isHull[j] = true
	}
	c.hullPts, c.isHull = sc.hullPts, sc.isHull
	return c
}

// growInts returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growPoints returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func growPoints(s []geom.Point, n int) []geom.Point {
	if cap(s) < n {
		return make([]geom.Point, n)
	}
	return s[:n]
}

// growBools returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// growPairs returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func growPairs(s []distr.Pair, n int) []distr.Pair {
	if cap(s) < n {
		return make([]distr.Pair, n)
	}
	return s[:n]
}

// growKeys returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func growKeys(s []orderKey, n int) []orderKey {
	if cap(s) < n {
		return make([]orderKey, n)
	}
	return s[:n]
}

// growWords returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// newSweepRows returns what Checker.sweep starts from: nu rows over nv
// demand atoms with every pair admissible, and the forbidden-prefix mask.
func (sc *CheckScratch) newSweepRows(nu, nv int) sweepRows {
	w := flow.RowWords(nv)
	sc.sweepBits = growWords(sc.sweepBits, (nu+1)*w)
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

// growFloats returns s resized to n, reusing its capacity.
//
//nnc:coldpath amortized buffer growth to the search's high-water size; warm calls reslice
func growFloats(s geom.Point, n int) geom.Point {
	if cap(s) < n {
		return make(geom.Point, n)
	}
	return s[:n]
}
