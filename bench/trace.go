package main

// The tracer and the decorators that feed it. Every span is recorded from
// this package, around a call into a product layer through a seam the
// product already exposes; nothing inside the product is instrumented.
// The end-to-end metrics are measured with none of this installed.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

type layerID uint8

const (
	spOp        layerID = iota // one whole operation as the client times it
	spSearch                   // core.SearchBackend, or an index's SearchKCtx
	spExpand                   // core.Backend.Expand (the engine's visit callbacks excluded)
	spResolve                  // core.Backend.Resolve
	spFileRead                 // one physical page read under the pager
	spWALWrite                 // one WriteAt on the WAL file
	spWALSync                  // one Sync on the WAL file
	spHTTPOuter                // handler outside front.Handler
	spHTTPInner                // handler between front.Handler and server.Server
	spDoor                     // server.Backend call from Server into front.Door
	spStore                    // server.Backend call from Door into front.MemStore
	numLayers
)

var layerNames = [numLayers]string{
	"op", "core.search", "backend.expand", "backend.resolve", "pager.file_read",
	"wal.write", "wal.sync", "http.outer", "http.inner", "backend.door", "backend.store",
}

// Operation kinds, carried on spOp and on the serving tier's spans.
const (
	kindQuery uint8 = iota
	kindInsert
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"query", "insert", "delete"}

// span is one timed interval. Parent is the index of the span that was
// open when this one began (-1 for an operation's root); Req numbers the
// operation all spans of one request share. Times are nanoseconds since
// the tracer was created.
type span struct {
	Layer  layerID
	Kind   uint8
	Parent int32
	Req    int32
	Start  int64
	End    int64
}

// tracer collects spans in memory. The benchmark has one client, so at
// most one operation is in flight and spans nest strictly in time even
// when the client and the HTTP server goroutine take turns recording; the
// mutex is there for the memory model, not for contention.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int32
	req   int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

func (t *tracer) begin(l layerID, kind uint8) int32 {
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: l, Kind: kind, Parent: t.cur, Req: t.req})
	t.cur = i
	t.spans[i].Start = int64(time.Since(t.t0))
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	t.mu.Lock()
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
	t.mu.Unlock()
}

// beginOp opens the root span of the next operation.
func (t *tracer) beginOp(kind uint8) int32 {
	t.mu.Lock()
	t.req++
	t.cur = -1
	t.mu.Unlock()
	return t.begin(spOp, kind)
}

// timeOp runs f as one client-timed operation: inside an op span when tr
// is non-nil, and with its wall time returned either way.
func timeOp(tr *tracer, kind uint8, f func() error) (time.Duration, error) {
	var sp int32
	if tr != nil {
		sp = tr.beginOp(kind)
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if tr != nil {
		tr.end(sp)
	}
	return d, err
}

// spanned runs f inside a span of the given layer when tr is non-nil.
func spanned[T any](tr *tracer, l layerID, f func() (T, error)) (T, error) {
	if tr == nil {
		return f()
	}
	s := tr.begin(l, 0)
	defer tr.end(s)
	return f()
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTotals aggregates one pass's spans: per layer the span count, the
// summed duration and the summed self time (duration minus the part
// covered by child spans).
type layerTotals struct {
	count [numLayers]int
	total [numLayers]time.Duration
	self  [numLayers]time.Duration
}

// selfTimes returns, for each span in [lo,hi), its duration minus the part
// its child spans cover.
func (t *tracer) selfTimes(lo, hi int) []time.Duration {
	self := make([]time.Duration, hi-lo)
	for i := lo; i < hi; i++ {
		s := &t.spans[i]
		d := time.Duration(s.End - s.Start)
		self[i-lo] += d
		if p := int(s.Parent); p >= lo {
			self[p-lo] -= d
		}
	}
	return self
}

func (t *tracer) totals(lo, hi int) layerTotals {
	var lt layerTotals
	self := t.selfTimes(lo, hi)
	for i := lo; i < hi; i++ {
		s := &t.spans[i]
		lt.count[s.Layer]++
		lt.total[s.Layer] += time.Duration(s.End - s.Start)
		lt.self[s.Layer] += self[i-lo]
	}
	return lt
}

// spanJSON is the dump format: one object per span, names spelled out.
type spanJSON struct {
	Name    string `json:"name"`
	Kind    string `json:"kind,omitempty"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int32  `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// dump writes spans [lo,hi) to path as a JSON array; ids are rebased to lo.
func (t *tracer) dump(path string, lo, hi int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := json.NewEncoder(f)
	_, err = io.WriteString(f, "[\n")
	for i := lo; i < hi && err == nil; i++ {
		s := t.spans[i]
		js := spanJSON{Name: layerNames[s.Layer], ID: i - lo, Parent: int(s.Parent) - lo, Req: s.Req, StartNS: s.Start, EndNS: s.End}
		if s.Parent < 0 {
			js.Parent = -1
		}
		if s.Layer == spOp || s.Layer >= spHTTPOuter {
			js.Kind = kindNames[s.Kind]
		}
		if i > lo {
			_, err = io.WriteString(f, ",")
		}
		if err == nil {
			err = w.Encode(js)
		}
	}
	if err == nil {
		_, err = io.WriteString(f, "]\n")
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- seam (a): core.Backend ---------------------------------------------------

// tracedBackend times Expand and (for storage backends) Resolve. Expand
// buffers the node's entries and hands them to the engine's visit only
// after the span has closed, so the engine's own work per entry — the
// min-distance key and the heap push — is not billed to storage.
type tracedBackend struct {
	inner        core.Backend
	tr           *tracer
	resolveSpans bool // memory backends resolve by returning a pointer: not worth a span
	buf          []core.BackendEntry
	collect      func(core.BackendEntry)
}

func newTracedBackend(inner core.Backend, tr *tracer, resolveSpans bool) *tracedBackend {
	b := &tracedBackend{inner: inner, tr: tr, resolveSpans: resolveSpans}
	b.collect = func(e core.BackendEntry) { b.buf = append(b.buf, e) }
	return b
}

func (b *tracedBackend) Root() (core.NodeRef, error) { return b.inner.Root() }

func (b *tracedBackend) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	b.buf = b.buf[:0]
	s := b.tr.begin(spExpand, 0)
	err := b.inner.Expand(n, b.collect)
	b.tr.end(s)
	for _, e := range b.buf {
		visit(e)
	}
	return err
}

func (b *tracedBackend) Resolve(r core.ObjRef) (*uncertain.Object, error) {
	if !b.resolveSpans {
		return b.inner.Resolve(r)
	}
	s := b.tr.begin(spResolve, 0)
	o, err := b.inner.Resolve(r)
	b.tr.end(s)
	return o, err
}

func (b *tracedBackend) AccessStats() core.IOStats { return b.inner.AccessStats() }

// DenseIDSpan forwards the optional capability, so the traced engine picks
// the same checker cache layout as the untraced one.
func (b *tracedBackend) DenseIDSpan() int {
	if ds, ok := b.inner.(core.DenseIDSpanner); ok {
		return ds.DenseIDSpan()
	}
	return 0
}

// --- seam (b): pager.WithReaderWrapper ------------------------------------------

type tracedReader struct {
	r  io.ReaderAt
	tr *tracer
}

func (t tracedReader) ReadAt(p []byte, off int64) (int, error) {
	s := t.tr.begin(spFileRead, 0)
	n, err := t.r.ReadAt(p, off)
	t.tr.end(s)
	return n, err
}

// --- seam (c): MutableOptions.WALWrap -------------------------------------------

// tracedWAL times WAL writes and syncs and counts their bytes.
type tracedWAL struct {
	*os.File
	tr                   *tracer
	writes, syncs, bytes int64
}

var _ wal.File = (*tracedWAL)(nil)

func (w *tracedWAL) WriteAt(p []byte, off int64) (int, error) {
	s := w.tr.begin(spWALWrite, 0)
	n, err := w.File.WriteAt(p, off)
	w.tr.end(s)
	w.writes++
	w.bytes += int64(n)
	return n, err
}

func (w *tracedWAL) Sync() error {
	s := w.tr.begin(spWALSync, 0)
	err := w.File.Sync()
	w.tr.end(s)
	w.syncs++
	return err
}

// countingWAL is the untraced stand-in: it only counts syncs, which the
// pass-identity check needs on every pass. One integer add per sync.
type countingWAL struct {
	*os.File
	syncs int64
}

func (w *countingWAL) Sync() error {
	w.syncs++
	return w.File.Sync()
}

// --- seam (d): server.Backend decorators -----------------------------------------

// tracedServerBackend wraps one server.Backend hop. It forwards every
// optional capability the real stack uses — mutation, epoch seeding,
// object listing and decorator unwrapping — so the server and the Door
// behave exactly as they do without it.
type tracedServerBackend struct {
	inner server.Backend
	mut   server.Mutator
	tr    *tracer
	layer layerID
	// stats, examined and cands accumulate the engine counters of every
	// search that crossed this hop.
	stats    core.Stats
	examined int
	cands    int
}

func newTracedServerBackend(inner server.Backend, tr *tracer, layer layerID) *tracedServerBackend {
	b := &tracedServerBackend{inner: inner, tr: tr, layer: layer}
	b.mut, _ = inner.(server.Mutator)
	return b
}

func (b *tracedServerBackend) resetCounters() {
	b.stats, b.examined, b.cands = core.Stats{}, 0, 0
}

func (b *tracedServerBackend) Len() int { return b.inner.Len() }
func (b *tracedServerBackend) Dim() int { return b.inner.Dim() }

func (b *tracedServerBackend) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	s := b.tr.begin(b.layer, kindQuery)
	res, err := b.inner.SearchKCtx(ctx, q, op, k, opts)
	b.tr.end(s)
	if res != nil {
		b.stats.Add(res.Stats)
		b.examined += res.Examined
		b.cands += len(res.Candidates)
	}
	return res, err
}

func (b *tracedServerBackend) Mutable() bool { return b.mut != nil && b.mut.Mutable() }

func (b *tracedServerBackend) Insert(o *uncertain.Object) error {
	s := b.tr.begin(b.layer, kindInsert)
	err := b.mut.Insert(o)
	b.tr.end(s)
	return err
}

func (b *tracedServerBackend) Delete(id int) (bool, error) {
	s := b.tr.begin(b.layer, kindDelete)
	ok, err := b.mut.Delete(id)
	b.tr.end(s)
	return ok, err
}

func (b *tracedServerBackend) Inner() server.Backend { return b.inner }

func (b *tracedServerBackend) Epoch() uint64 {
	if e, ok := b.inner.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

func (b *tracedServerBackend) Objects() []*uncertain.Object {
	if l, ok := b.inner.(server.ObjectLister); ok {
		return l.Objects()
	}
	return nil
}

func (b *tracedServerBackend) Object(id int) *uncertain.Object {
	if l, ok := b.inner.(server.ObjectLister); ok {
		return l.Object(id)
	}
	return nil
}

// --- seam (e): http.Handler middleware ---------------------------------------------

func tracedHandler(inner http.Handler, tr *tracer, layer layerID) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := kindQuery
		switch r.URL.Path {
		case "/insert":
			kind = kindInsert
		case "/delete":
			kind = kindDelete
		}
		s := tr.begin(layer, kind)
		inner.ServeHTTP(w, r)
		tr.end(s)
	})
}
