package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

const (
	diskOp = core.SSD
	diskK  = 1
	// buildFrames is the pool the bulk load runs with; the file is closed
	// and reopened at the workload's own pool size afterwards.
	buildFrames = 256
)

// diskFile is what the two disk workloads share: the generated objects
// and the page file diskindex.Build writes from them.
type diskFile struct {
	sz      sizes
	objs    []*uncertain.Object
	queries []*uncertain.Object
	path    string
	buildT  time.Duration
	openT   time.Duration
	// fileRatio is the built file's size over the raw size of what it
	// stores: eight bytes per coordinate and per probability, plus an id
	// per object.
	fileRatio float64
}

func (f *diskFile) generate(seed int64, queries int) {
	ds := datagen.Generate(datagen.Params{N: f.sz.diskN, Dim: 3, M: f.sz.diskM, Centers: datagen.AntiCorrelated, Seed: seed})
	f.objs = ds.Objects
	f.queries = ds.Queries(queries, 8, 200, seed+101)
}

// bulkLoad writes the page file and closes it, so the workload reopens it
// the way a process serving an existing file would.
func (f *diskFile) bulkLoad(dir string) error {
	t0 := time.Now()
	f.path = filepath.Join(dir, "objs.pg")
	pf, err := pager.Create(f.path, pager.PageSize)
	if err != nil {
		return err
	}
	if _, err := diskindex.Build(pager.NewPool(pf, buildFrames), f.objs); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	f.buildT = time.Since(t0)
	st, err := os.Stat(f.path)
	if err != nil {
		return err
	}
	var user int64
	for _, o := range f.objs {
		user += 8 + int64(o.Len())*int64(o.Dim()+1)*8
	}
	f.fileRatio = float64(st.Size()) / float64(user)
	return nil
}

// --- disk_cold ------------------------------------------------------------------

// diskCold: queries against a file thirty times the buffer pool, with a
// 64-entry object cache. diskrtree, diskstore and pager do most of the
// work and the kernels almost none — the workload a kernel change must
// leave flat, and the one a pager or allocation change must move.
type diskCold struct {
	diskFile
	pf     *pager.PageFile
	ix     *diskindex.Index
	traced *tracedBackend
	tr     *tracer
}

func (w *diskCold) evolves() bool { return false }

func (w *diskCold) generate(seed int64) { w.diskFile.generate(seed, w.sz.diskQueries) }

func (w *diskCold) build(_ context.Context, dir string, tr *tracer) error {
	if err := w.bulkLoad(dir); err != nil {
		return err
	}
	t0 := time.Now()
	var opts []pager.Option
	if tr != nil {
		opts = append(opts, pager.WithReaderWrapper(func(r io.ReaderAt) io.ReaderAt { return tracedReader{r, tr} }))
	}
	pf, err := pager.Open(w.path, opts...)
	if err != nil {
		return err
	}
	ix, err := diskindex.Open(pager.NewPool(pf, w.sz.coldFrames), diskindex.SuperPageID)
	if err != nil {
		pf.Close()
		return err
	}
	ix.SetObjCacheCap(w.sz.coldObjCache)
	w.pf, w.ix, w.tr = pf, ix, tr
	if tr != nil {
		w.traced = newTracedBackend(ix, tr, true)
	}
	w.openT = time.Since(t0)
	return nil
}

func (w *diskCold) search(ctx context.Context, q *uncertain.Object) (*core.Result, error) {
	opts := core.SearchOptions{Filters: core.AllFilters}
	if w.traced == nil {
		return w.ix.SearchKCtx(ctx, q, diskOp, diskK, opts)
	}
	return spanned(w.tr, spSearch, func() (*core.Result, error) {
		return core.SearchBackend(ctx, w.traced, q, diskOp, diskK, opts)
	})
}

func (w *diskCold) pass(ctx context.Context, p *passResult) error {
	digest := uint64(fnvOffset)
	p.start()
	for _, q := range w.queries {
		var res *core.Result
		d, err := timeOp(w.tr, kindQuery, func() (err error) {
			res, err = w.search(ctx, q)
			return err
		})
		if err != nil {
			return err
		}
		p.record(d, true)
		digest = digestResult(digest, res)
		p.detail.addSearch(res)
	}
	p.stop()
	io := p.detail.io
	p.counts = counts{Digest: digest, CacheHits: io.Hits, CacheMisses: io.Misses, PagesRead: io.Reads, DomChecks: p.detail.stats.DominanceChecks}
	return nil
}

func addIO(a, b core.IOStats) core.IOStats {
	return core.IOStats{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes,
		CacheHits: a.CacheHits + b.CacheHits, CacheEvictions: a.CacheEvictions + b.CacheEvictions,
	}
}

func (w *diskCold) verify(ctx context.Context) (int, int, error) {
	return verifySamples(ctx, w.objs, w.queries, diskOp, diskK, w.search)
}

func (w *diskCold) finish(context.Context) (int, int, error) { return 0, 0, nil }
func (w *diskCold) close() error                             { return w.pf.Close() }

func (w *diskCold) layers(p *passResult, tr *tracer, m map[string]float64) time.Duration {
	lt := tr.totals(p.spanLo, p.spanHi)
	n := float64(p.ops)
	m["core.search_self_ms"] = ms(lt.self[spSearch]) / n
	coreCounts(m, &p.detail)
	readPathLayers(m, lt, p.detail.io, n)
	m["diskindex.allocs_per_query"] = float64(p.mallocs) / n
	m["diskindex.file_bytes_per_user_byte"] = w.fileRatio
	m["diskindex.build_s"] = w.buildT.Seconds()
	m["diskindex.open_s"] = w.openT.Seconds()
	return lt.self[spSearch] + lt.self[spExpand] + lt.self[spResolve] + lt.self[spFileRead]
}

// readPathLayers reports the disk read path per query: expand and resolve
// (whole and self, i.e. without the file reads inside them), the physical
// reads, and the pool and object-cache counters.
func readPathLayers(m map[string]float64, lt layerTotals, io core.IOStats, n float64) {
	m["diskindex.expand_ms"] = ms(lt.total[spExpand]) / n
	m["diskindex.expand_self_ms"] = ms(lt.self[spExpand]) / n
	m["diskindex.resolve_ms"] = ms(lt.total[spResolve]) / n
	m["diskindex.resolve_self_ms"] = ms(lt.self[spResolve]) / n
	m["diskindex.expands"] = float64(lt.count[spExpand]) / n
	m["diskindex.resolves"] = float64(lt.count[spResolve]) / n
	m["diskindex.objcache_hits"] = float64(io.CacheHits) / n
	m["diskindex.objcache_evictions"] = float64(io.CacheEvictions) / n
	m["pager.file_read_ms"] = ms(lt.total[spFileRead]) / n
	m["pager.file_reads"] = float64(lt.count[spFileRead]) / n
	m["pager.pool_hits"] = float64(io.Hits) / n
	m["pager.pool_misses"] = float64(io.Misses) / n
	if a := io.Hits + io.Misses; a > 0 {
		m["pager.pool_hit_ratio"] = float64(io.Hits) / float64(a)
	}
}

func (w *diskCold) replaySamples(ctx context.Context) ([]replaySample, error) {
	return sampleAnswers(ctx, w.queries, diskOp, w.search)
}

// --- disk_write -----------------------------------------------------------------

// diskWrite: committed inserts and deletes against the same file opened
// mutable, with a pool that holds all of it. The storage layers of
// disk_cold, written instead of read: WAL append and sync, copy-on-write
// transaction, snapshot publish, auto-checkpoint.
type diskWrite struct {
	diskFile
	inserts []*uncertain.Object

	ix   *diskindex.Index
	tr   *tracer
	walT *tracedWAL   // traced block
	walC *countingWAL // every other block
}

// evolves: inserting and deleting the same objects leaves the object set
// unchanged but not the file — node splits persist, tombstones and dead
// records accumulate — so a later pass commits slightly different pages.
func (w *diskWrite) evolves() bool { return true }

func (w *diskWrite) generate(seed int64) {
	w.diskFile.generate(seed, w.sz.writeOps/w.sz.writeQueryEvery)
	// The objects to insert come from the same distribution under another
	// seed, renumbered above the base set.
	extra := datagen.Generate(datagen.Params{N: w.sz.writeOps, Dim: 3, M: w.sz.diskM, Centers: datagen.AntiCorrelated, Seed: seed + 7})
	w.inserts = make([]*uncertain.Object, len(extra.Objects))
	for i, o := range extra.Objects {
		w.inserts[i] = uncertain.MustNew(w.sz.diskN+1+i, o.Points(), o.Probs())
	}
}

func (w *diskWrite) open(tr *tracer) error {
	opts := &diskindex.MutableOptions{Frames: w.sz.writeFrames}
	if tr != nil {
		opts.WALWrap = func(f *os.File) wal.File { w.walT = &tracedWAL{File: f, tr: tr}; return w.walT }
	} else {
		opts.WALWrap = func(f *os.File) wal.File { w.walC = &countingWAL{File: f}; return w.walC }
	}
	ix, err := diskindex.OpenFileMutable(w.path, opts)
	if err != nil {
		return err
	}
	w.ix, w.tr = ix, tr
	return nil
}

func (w *diskWrite) build(_ context.Context, dir string, tr *tracer) error {
	if err := w.bulkLoad(dir); err != nil {
		return err
	}
	t0 := time.Now()
	err := w.open(tr)
	w.openT = time.Since(t0)
	return err
}

func (w *diskWrite) walSyncs() int64 {
	if w.walT != nil {
		return w.walT.syncs
	}
	return w.walC.syncs
}

func (w *diskWrite) search(ctx context.Context, q *uncertain.Object) (*core.Result, error) {
	return w.ix.SearchKCtx(ctx, q, diskOp, diskK, core.SearchOptions{Filters: core.AllFilters})
}

// pass inserts every extra object, with one query after each
// writeQueryEvery-th insert, then deletes them again: the object set is
// the same at every pass start. The headline op is the committed write.
func (w *diskWrite) pass(ctx context.Context, p *passResult) error {
	digest := uint64(fnvOffset)
	det := &p.detail
	syncs0, io0 := w.walSyncs(), w.ix.AccessStats()
	walSize := w.ix.WALSize()
	if w.walT != nil {
		det.walBytes = -w.walT.bytes
	}

	write := func(kind uint8, o *uncertain.Object) error {
		d, err := timeOp(w.tr, kind, func() error {
			if kind == kindInsert {
				return w.ix.Insert(o)
			}
			ok, err := w.ix.Delete(o.ID())
			if err == nil && !ok {
				p.failed++
			}
			return err
		})
		if err != nil {
			return err
		}
		p.record(d, true)
		// A WAL that shrank was reset: this commit ran a checkpoint.
		now := w.ix.WALSize()
		if now < walSize {
			det.checkpoints++
			if w.tr != nil {
				det.ckptReqs = append(det.ckptReqs, w.tr.req)
			}
		}
		walSize = now
		return nil
	}

	p.start()
	for i, o := range w.inserts {
		if err := write(kindInsert, o); err != nil {
			return fmt.Errorf("insert %d: %w", o.ID(), err)
		}
		if (i+1)%w.sz.writeQueryEvery == 0 {
			var res *core.Result
			d, err := timeOp(w.tr, kindQuery, func() (err error) {
				res, err = w.search(ctx, w.queries[det.queries])
				return err
			})
			if err != nil {
				return err
			}
			p.record(d, false)
			digest = digestResult(digest, res)
			det.addSearch(res)
		}
	}
	for _, o := range w.inserts {
		if err := write(kindDelete, o); err != nil {
			return fmt.Errorf("delete %d: %w", o.ID(), err)
		}
	}
	p.stop()

	det.pageWrites = w.ix.AccessStats().Sub(io0).Writes
	if w.walT != nil {
		det.walBytes += w.walT.bytes
	}
	// The pool holds the whole file, so the queries' page counts say
	// nothing here and are left out of the identity check.
	p.counts = counts{Digest: digest, DomChecks: det.stats.DominanceChecks, WALSyncs: w.walSyncs() - syncs0}
	// Checkpointing commits are the slow mode of the headline op.
	p.boundaries = []float64{1 - float64(det.checkpoints)/float64(len(p.lat))}
	return nil
}

func (w *diskWrite) verify(ctx context.Context) (int, int, error) {
	return verifySamples(ctx, w.objs, w.queries, diskOp, diskK, w.search)
}

// finish checks that the passes left exactly the base set behind, and that
// a Close and reopen (WAL recovery included) answers the sampled queries
// as before.
func (w *diskWrite) finish(ctx context.Context) (checked, failed int, err error) {
	checked++
	if w.ix.Len() != w.sz.diskN {
		failed++
	}
	var before [][]int
	for i := 0; i < verifyQueries; i++ {
		res, err := w.search(ctx, w.queries[i*len(w.queries)/verifyQueries])
		if err != nil {
			return checked, failed, err
		}
		before = append(before, res.IDs())
	}
	if err := w.ix.Close(); err != nil {
		return checked, failed, err
	}
	if err := w.open(w.tr); err != nil {
		return checked, failed, err
	}
	for i := 0; i < verifyQueries; i++ {
		res, err := w.search(ctx, w.queries[i*len(w.queries)/verifyQueries])
		if err != nil {
			return checked, failed, err
		}
		checked++
		if !sameIDSet(res.IDs(), before[i]) {
			failed++
		}
	}
	return checked, failed, nil
}

func (w *diskWrite) close() error { return w.ix.Close() }

func (w *diskWrite) layers(p *passResult, tr *tracer, m map[string]float64) time.Duration {
	lt := tr.totals(p.spanLo, p.spanHi)
	det := &p.detail
	commits := float64(len(p.lat))

	var byKind [numKinds][]time.Duration
	var writeSelf, stall time.Duration
	ckpt := map[int32]bool{}
	for _, r := range det.ckptReqs {
		ckpt[r] = true
	}
	self := tr.selfTimes(p.spanLo, p.spanHi)
	for i := p.spanLo; i < p.spanHi; i++ {
		s := tr.spans[i]
		if s.Layer != spOp {
			continue
		}
		d := time.Duration(s.End - s.Start)
		byKind[s.Kind] = append(byKind[s.Kind], d)
		if s.Kind != kindQuery {
			writeSelf += self[i-p.spanLo]
			if ckpt[s.Req] {
				stall += d
			}
		}
	}
	for k := range byKind {
		slices.Sort(byKind[k])
	}
	m["diskindex.insert_p50_us"] = us(percentile(byKind[kindInsert], 0.5))
	m["diskindex.delete_p50_us"] = us(percentile(byKind[kindDelete], 0.5))
	m["diskindex.query_p50_ms"] = ms(percentile(byKind[kindQuery], 0.5))
	m["diskindex.commit_self_us"] = us(writeSelf) / commits
	m["diskindex.checkpoints_per_1k_commits"] = 1000 * float64(det.checkpoints) / commits
	if det.checkpoints > 0 {
		m["diskindex.checkpoint_stall_ms"] = ms(stall) / float64(det.checkpoints)
	}
	m["wal.write_us_per_commit"] = us(lt.total[spWALWrite]) / commits
	m["wal.sync_us_per_commit"] = us(lt.total[spWALSync]) / commits
	m["wal.syncs_per_commit"] = float64(lt.count[spWALSync]) / commits
	m["wal.writes_per_commit"] = float64(lt.count[spWALWrite]) / commits
	m["wal.bytes_per_commit"] = float64(det.walBytes) / commits
	m["pager.page_writes_per_commit"] = float64(det.pageWrites) / commits
	m["diskindex.file_bytes_per_user_byte"] = w.fileRatio
	m["diskindex.build_s"] = w.buildT.Seconds()
	m["diskindex.open_s"] = w.openT.Seconds()
	coreCounts(m, det)
	return lt.total[spOp]
}

func (w *diskWrite) replaySamples(ctx context.Context) ([]replaySample, error) {
	return sampleAnswers(ctx, w.queries, diskOp, w.search)
}
