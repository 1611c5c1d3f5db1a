package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
	"spatialdom/internal/uncertain"
)

const (
	servedOp   = core.PSD
	servedK    = 4
	servedZipf = 1.1
	// servedLag is how many inserted objects stay live before the op list
	// starts deleting the oldest one; the rest are deleted by the untimed
	// tail, so every pass starts from the same object set.
	servedLag = 8
)

// servedMixed: the whole serving stack in process on loopback — front.Handler
// → server.Server → front.Door → front.MemStore — under a Zipf-skewed mix of
// repeated queries with a tenth of the requests writing. The median request
// is a cache hit (HTTP, JSON, cache key), the 95th percentile a miss (R-tree
// traversal on sparse data), and the writes keep invalidation honest.
type servedMixed struct {
	sz   sizes
	objs []*uncertain.Object
	pool []*uncertain.Object // distinct queries the op list draws from
	reqs []servedReq
	tail []servedReq

	store  *front.MemStore
	door   *front.Door
	hs     *http.Server
	served chan struct{} // closed when Serve has returned
	client *http.Client
	url    string
	buf    bytes.Buffer

	tr     *tracer
	tStore *tracedServerBackend
}

type servedReq struct {
	kind uint8
	path string
	body []byte
	q    *uncertain.Object // query ops
	obj  *uncertain.Object // inserts, and the object a delete removes
}

func (w *servedMixed) evolves() bool { return false }

func (w *servedMixed) generate(seed int64) {
	ds := datagen.Generate(datagen.Params{N: w.sz.servedN, Dim: 3, M: w.sz.servedM, Centers: datagen.AntiCorrelated, Seed: seed})
	w.objs = ds.Objects
	w.pool = ds.Queries(w.sz.servedPool, 8, 200, seed+101)
	bodies := make([][]byte, len(w.pool))
	for i, q := range w.pool {
		bodies[i] = mustJSON(server.QueryRequest{Instances: rows(q), Operator: servedOp.String(), K: servedK})
	}
	writes := w.sz.servedRequests / w.sz.servedWriteEvery
	extra := datagen.Generate(datagen.Params{N: writes, Dim: 3, M: w.sz.servedM, Centers: datagen.AntiCorrelated, Seed: seed + 7})

	rng := rand.New(rand.NewSource(seed + 303))
	zipf := rand.NewZipf(rng, servedZipf, 1, uint64(len(w.pool)-1))
	insert := func(o *uncertain.Object) servedReq {
		return servedReq{kind: kindInsert, path: "/insert", obj: o,
			body: mustJSON(server.ObjectJSON{ID: o.ID(), Instances: rows(o), Probs: o.Probs()})}
	}
	remove := func(o *uncertain.Object) servedReq {
		return servedReq{kind: kindDelete, path: "/delete", obj: o, body: mustJSON(server.DeleteRequest{ID: o.ID()})}
	}
	w.reqs, w.tail = w.reqs[:0], w.tail[:0]
	var live []*uncertain.Object
	next := 0
	for i := 0; i < w.sz.servedRequests; i++ {
		switch {
		case (i+1)%w.sz.servedWriteEvery != 0:
			j := zipf.Uint64()
			w.reqs = append(w.reqs, servedReq{kind: kindQuery, path: "/query", body: bodies[j], q: w.pool[j]})
		case len(live) > servedLag:
			w.reqs = append(w.reqs, remove(live[0]))
			live = live[1:]
		default:
			o := extra.Objects[next]
			o = uncertain.MustNew(w.sz.servedN+1+next, o.Points(), o.Probs())
			next++
			live = append(live, o)
			w.reqs = append(w.reqs, insert(o))
		}
	}
	for _, o := range live {
		w.tail = append(w.tail, remove(o))
	}
}

func rows(o *uncertain.Object) [][]float64 {
	out := make([][]float64, o.Len())
	for i := range out {
		out[i] = o.Instance(i)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of floats and ints always encode
	}
	return b
}

func (w *servedMixed) build(_ context.Context, _ string, tr *tracer) error {
	store, err := front.NewMemStore(w.objs)
	if err != nil {
		return err
	}
	w.store, w.tr = store, tr
	var below server.Backend = store
	if tr != nil {
		w.tStore = newTracedServerBackend(store, tr, spStore)
		below = w.tStore
	}
	w.door = front.NewDoor(below, front.DoorConfig{})
	var backend server.Backend = w.door
	if tr != nil {
		backend = newTracedServerBackend(w.door, tr, spDoor)
	}
	srv := server.NewBackend(backend)
	var inner http.Handler = srv
	if tr != nil {
		inner = tracedHandler(srv, tr, spHTTPInner)
	}
	// No in-flight ceiling and no rate limit: one client cannot trip
	// either, and the shedding paths have their own tests.
	h := front.NewHandler(inner, w.door, front.Config{MaxInFlight: -1})
	srv.SetFront(h)
	var outer http.Handler = h
	if tr != nil {
		outer = tracedHandler(h, tr, spHTTPOuter)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: outer}
	w.served = make(chan struct{})
	//nnc:detached Serve returns when close() shuts the server down, and close() waits on w.served
	go func() {
		w.hs.Serve(ln)
		close(w.served)
	}()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return nil
}

func (w *servedMixed) close() error {
	w.client.CloseIdleConnections()
	err := w.hs.Close()
	<-w.served
	return err
}

// post sends one request over the keep-alive connection and leaves the
// response body in w.buf.
func (w *servedMixed) post(ctx context.Context, r *servedReq) (status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// pass replays the op list; check, when non-nil, is called after every
// request with the response still in w.buf (the verification pass).
func (w *servedMixed) run(ctx context.Context, p *passResult, check func(r *servedReq)) error {
	digest := uint64(fnvOffset)
	det := &p.detail
	before := w.door.Stats()
	if w.tStore != nil {
		w.tStore.resetCounters()
	}
	p.start()
	for i := range w.reqs {
		r := &w.reqs[i]
		var status int
		d, err := timeOp(w.tr, r.kind, func() (err error) {
			status, err = w.post(ctx, r)
			return err
		})
		if err != nil {
			return fmt.Errorf("request %d %s: %w", i, r.path, err)
		}
		if status != http.StatusOK {
			p.failed++
		}
		p.record(d, r.kind == kindQuery)
		if r.kind == kindQuery {
			digest = digestBody(digest, w.buf.Bytes())
			det.queries++
			det.reqBytes += int64(len(r.body))
			det.respBytes += int64(w.buf.Len())
		} else {
			det.writes++
		}
		if check != nil {
			check(r)
		}
	}
	p.stop()
	after := w.door.Stats()
	for i := range w.tail {
		status, err := w.post(ctx, &w.tail[i])
		if err != nil {
			return fmt.Errorf("restoring delete %d: %w", i, err)
		}
		if status != http.StatusOK {
			p.failed++
		}
		if check != nil {
			check(&w.tail[i])
		}
	}

	det.door = after
	det.door.Cache.Hits -= before.Cache.Hits
	det.door.Cache.Misses -= before.Cache.Misses
	det.door.Cache.Invalidations -= before.Cache.Invalidations
	det.door.CoalesceHits -= before.CoalesceHits
	if w.tStore != nil {
		det.stats, det.examined, det.cands = w.tStore.stats, w.tStore.examined, w.tStore.cands
	}
	hits, misses := det.door.Cache.Hits, det.door.Cache.Misses
	p.counts = counts{Digest: digest, CacheHits: hits, CacheMisses: misses}
	// Hits are the fast mode of the headline op, misses the slow one.
	p.boundaries = []float64{float64(hits) / float64(hits+misses)}
	return nil
}

func (w *servedMixed) pass(ctx context.Context, p *passResult) error { return w.run(ctx, p, nil) }

// digestBody folds the candidate ids of a /query response into h without
// decoding it: every `"id":` in a QueryResponse belongs to a candidate.
func digestBody(h uint64, body []byte) uint64 {
	key := []byte(`"id":`)
	n := 0
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			break
		}
		body = body[i+len(key):]
		var id uint64 // object ids are positive
		for j := 0; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
			id = id*10 + uint64(body[j]-'0')
		}
		h = mix(h, id)
		n++
	}
	return mix(h, uint64(n)|1<<63)
}

func (w *servedMixed) responseIDs() ([]int, error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(w.buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	ids := make([]int, len(resp.Candidates))
	for i, c := range resp.Candidates {
		ids[i] = c.ID
	}
	return ids, nil
}

// verify checks five pool queries against core.BruteForceK on the base
// set, then replays the whole op list once more, untimed, beside a shadow
// library index that takes the same inserts and deletes: every tenth cache
// miss must carry exactly the library's answer for the objects live at
// that moment.
func (w *servedMixed) verify(ctx context.Context) (checked, failed int, err error) {
	for i := 0; i < verifyQueries; i++ {
		j := i * len(w.pool) / verifyQueries
		r := servedReq{kind: kindQuery, path: "/query", q: w.pool[j],
			body: mustJSON(server.QueryRequest{Instances: rows(w.pool[j]), Operator: servedOp.String(), K: servedK})}
		status, err := w.post(ctx, &r)
		if err != nil {
			return checked, failed, err
		}
		ids, derr := w.responseIDs()
		checked++
		if status != http.StatusOK || derr != nil || !sameIDSet(ids, objectIDs(bruteForce(w.objs, r.q, servedOp, servedK))) {
			failed++
		}
	}

	shadow, err := core.NewIndex(w.objs)
	if err != nil {
		return checked, failed, err
	}
	misses := w.door.Stats().Cache.Misses
	seen := 0
	var p passResult
	err = w.run(ctx, &p, func(r *servedReq) {
		switch r.kind {
		case kindInsert:
			if shadow.Insert(r.obj) != nil {
				failed++
			}
		case kindDelete:
			if !shadow.Delete(r.obj.ID()) {
				failed++
			}
		case kindQuery:
			now := w.door.Stats().Cache.Misses
			if now == misses {
				return
			}
			misses = now
			if seen++; seen%10 != 0 {
				return
			}
			want, serr := shadow.SearchKCtx(ctx, r.q, servedOp, servedK, core.SearchOptions{Filters: core.AllFilters})
			got, derr := w.responseIDs()
			checked++
			if serr != nil || derr != nil || !sameIDSet(got, want.IDs()) {
				failed++
			}
		}
	})
	return checked, failed + p.failed, err
}

func (w *servedMixed) finish(context.Context) (checked, failed int, err error) {
	if w.store.Len() != len(w.objs) {
		failed = 1
	}
	return 1, failed, nil
}

func (w *servedMixed) layers(p *passResult, tr *tracer, m map[string]float64) time.Duration {
	lt := tr.totals(p.spanLo, p.spanHi)
	det := &p.detail
	n := float64(p.ops)
	m["http.roundtrip_self_us"] = us(lt.self[spOp]) / n
	m["front.handler_self_us"] = us(lt.self[spHTTPOuter]) / n
	m["server.codec_self_us"] = us(lt.self[spHTTPInner]) / n
	m["front.door_self_us"] = us(lt.self[spDoor]) / n

	// A query whose request reached the store missed the cache.
	missed := map[int32]bool{}
	var searchT time.Duration
	for i := p.spanLo; i < p.spanHi; i++ {
		if s := tr.spans[i]; s.Layer == spStore && s.Kind == kindQuery {
			missed[s.Req] = true
			searchT += time.Duration(s.End - s.Start)
		}
	}
	var hit, miss, ins, del []time.Duration
	for i := p.spanLo; i < p.spanHi; i++ {
		s := tr.spans[i]
		d := time.Duration(s.End - s.Start)
		switch {
		case s.Layer == spOp && s.Kind == kindQuery && missed[s.Req]:
			miss = append(miss, d)
		case s.Layer == spOp && s.Kind == kindQuery:
			hit = append(hit, d)
		case s.Layer == spHTTPInner && s.Kind == kindInsert:
			ins = append(ins, d)
		case s.Layer == spHTTPInner && s.Kind == kindDelete:
			del = append(del, d)
		}
	}
	for _, l := range [][]time.Duration{hit, miss, ins, del} {
		slices.Sort(l)
	}
	m["front.hit_p50_us"] = us(percentile(hit, 0.5))
	m["front.miss_p50_ms"] = ms(percentile(miss, 0.5))
	m["server.insert_p50_us"] = us(percentile(ins, 0.5))
	m["server.delete_p50_us"] = us(percentile(del, 0.5))
	if len(miss) > 0 {
		// The store hop offers no core.Backend seam, so the in-memory
		// tree's share of a search cannot be split off here: the whole
		// store search is reported as the engine's.
		m["core.search_self_ms"] = ms(searchT) / float64(len(miss))
	}
	det.queries = len(miss) // coreCounts divides by searches run
	coreCounts(m, det)

	c := det.door.Cache
	m["front.cache_hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
	m["front.invalidations_per_write"] = float64(c.Invalidations) / float64(det.writes)
	m["front.cache_entries"] = float64(c.Entries)
	m["front.cache_bytes"] = float64(c.Bytes)
	m["front.coalesce_hits"] = float64(det.door.CoalesceHits)
	q := float64(len(hit) + len(miss))
	m["server.req_bytes_per_query"] = float64(det.reqBytes) / q
	m["server.resp_bytes_per_query"] = float64(det.respBytes) / q
	m["server.allocs_per_request"] = float64(p.mallocs) / n
	return lt.total[spOp]
}

// replaySamples answers sampled pool queries through the library on the
// base set; the served stack returns ids, not objects.
func (w *servedMixed) replaySamples(ctx context.Context) ([]replaySample, error) {
	idx, err := core.NewIndex(w.objs)
	if err != nil {
		return nil, err
	}
	return sampleAnswers(ctx, w.pool, servedOp, func(ctx context.Context, q *uncertain.Object) (*core.Result, error) {
		return idx.SearchKCtx(ctx, q, servedOp, servedK, core.SearchOptions{Filters: core.AllFilters})
	})
}
