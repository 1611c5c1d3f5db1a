package server

// The shared request pipeline: both query endpoints validate the same
// way, and every body is bounded.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

var queryEndpoints = []string{"/query", "/shard/query"}

// wireBody renders the same logical request for any query endpoint, which
// carries the instances at the top level; /insert adds an id. instances is
// raw JSON so a case can hold what no Go value marshals to (a NaN token).
func wireBody(endpoint, instances, tail string) string {
	if endpoint == "/insert" {
		return fmt.Sprintf(`{"id":900001,"instances":%s%s}`, instances, tail)
	}
	return fmt.Sprintf(`{"instances":%s%s}`, instances, tail)
}

// malformedInputs is the agreement table: twelve ways to get a query wrong,
// each with the one answer every endpoint must give — /insert too, on the
// rows that apply to an object (insert). FuzzBuildQuery seeds its corpus
// from it.
var malformedInputs = []struct {
	name, method, instances, tail string
	status                        int
	code                          string
	insert                        bool
}{
	{"unknown field", http.MethodPost, `[[1,2,3]]`, `,"bogus":1`, 400, "bad_request", true},
	{"bad operator", http.MethodPost, `[[1,2,3]]`, `,"operator":"XXX"`, 400, "bad_request", false},
	{"bad metric", http.MethodPost, `[[1,2,3]]`, `,"metric":"warp"`, 400, "bad_request", false},
	{"k below one", http.MethodPost, `[[1,2,3]]`, `,"k":-1`, 400, "bad_request", false},
	{"ragged instances", http.MethodPost, `[[1,2,3],[1,2]]`, ``, 400, "bad_request", true},
	{"NaN coordinate", http.MethodPost, `[[NaN,2,3]]`, ``, 400, "bad_request", true},
	{"no instances", http.MethodPost, `[]`, ``, 400, "bad_request", true},
	{"too many instances", http.MethodPost, "[" + strings.Repeat("[1,2,3],", maxInstances) + "[1,2,3]]", ``, 400, "bad_request", true},
	{"wrong dim", http.MethodPost, `[[1,2]]`, ``, 400, "bad_request", true},
	{"wrong method", http.MethodGet, `[[1,2,3]]`, ``, 405, "method_not_allowed", true},
	// The tail closes the object early: a second value, or bytes that are
	// no JSON at all, follow the request.
	{"trailing value", http.MethodPost, `[[1,2,3]]`, `}{"k":-5`, 400, "bad_request", true},
	{"trailing garbage", http.MethodPost, `[[1,2,3]]`, `} garbage`, 400, "bad_request", true},
}

// TestQueryEndpointsAgreeOnMalformedInput posts the same malformed input
// to both query endpoints and demands the same status and code from each —
// they share one decodeJSON and one buildQuery, so they cannot drift.
func TestQueryEndpointsAgreeOnMalformedInput(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 40, M: 4, Seed: 141}) // dim 3
	srv, err := New(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range malformedInputs {
		for _, ep := range queryEndpoints {
			rec := do(t, srv, tc.method, ep, wireBody(ep, tc.instances, tc.tail))
			if rec.Code != tc.status {
				t.Errorf("%s on %s: status %d, want %d (%s)", tc.name, ep, rec.Code, tc.status, rec.Body)
				continue
			}
			if c := errCode(t, rec); c != tc.code {
				t.Errorf("%s on %s: code %q, want %q", tc.name, ep, c, tc.code)
			}
		}
	}
	// The control: the well-formed request is accepted everywhere.
	for _, ep := range queryEndpoints {
		if rec := do(t, srv, http.MethodPost, ep, wireBody(ep, `[[1,2,3]]`, `,"operator":"SSD","k":2`)); rec.Code != 200 {
			t.Errorf("well-formed request on %s: status %d (%s)", ep, rec.Code, rec.Body)
		}
	}
}

// TestDeleteRefusesTrailingBytes: /delete, the one body endpoint the
// agreement table cannot reach, refuses bytes after its value the same
// way, and still takes trailing whitespace.
func TestDeleteRefusesTrailingBytes(t *testing.T) {
	srv := NewBackend(&mutableFake{fakeBackend{dim: 3}})
	for body, status := range map[string]int{
		`{"id":5}`:          200,
		"{\"id\":5} \t\r\n": 200,
		`{"id":5} garbage`:  400,
		`{"id":5}{"id":6}`:  400,
	} {
		rec := do(t, srv, http.MethodPost, "/delete", body)
		if rec.Code != status {
			t.Errorf("/delete %q: status %d, want %d (%s)", body, rec.Code, status, rec.Body)
		} else if status == 400 && errCode(t, rec) != "bad_request" {
			t.Errorf("/delete %q: code %q, want bad_request", body, errCode(t, rec))
		}
	}
}

// endlessBody is a well-formed JSON prefix that never ends, counting what
// is read from it.
type endlessBody struct {
	prefix string
	n      int64
}

func (e *endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		switch {
		case e.n < int64(len(e.prefix)):
			p[i] = e.prefix[e.n]
		case (e.n-int64(len(e.prefix)))%2 == 0:
			p[i] = '1'
		default:
			p[i] = ','
		}
		e.n++
	}
	return len(p), nil
}

// mutableFake is a fakeBackend that accepts mutations, so the mutation
// endpoints reach their decode step.
type mutableFake struct{ fakeBackend }

func (*mutableFake) Insert(*uncertain.Object) error { return nil }
func (*mutableFake) Delete(int) (bool, error)       { return true, nil }
func (*mutableFake) Mutable() bool                  { return true }

// TestOversizedBodyAnswers413: every body-carrying endpoint reads at most
// maxBodyBytes+1 bytes of an oversized body and answers a typed 413.
func TestOversizedBodyAnswers413(t *testing.T) {
	b := &mutableFake{fakeBackend{dim: 3, search: func(context.Context, *uncertain.Object, core.Operator, int, core.SearchOptions) (*core.Result, error) {
		t.Error("search reached with an oversized body")
		return &core.Result{}, nil
	}}}
	srv := NewBackend(b)
	for _, ep := range append(queryEndpoints, "/insert", "/delete") {
		body := &endlessBody{prefix: `{"instances":[[`}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", ep, rec.Code, rec.Body)
			continue
		}
		if c := errCode(t, rec); c != "payload_too_large" {
			t.Errorf("%s: code %q, want payload_too_large", ep, c)
		}
		if body.n > maxBodyBytes+1 {
			t.Errorf("%s: handler read %d bytes, limit is %d+1", ep, body.n, maxBodyBytes)
		}
	}
}

// TestQueryChecksReadinessBeforeDecoding: a warming server answers 503 on
// both query endpoints without touching the body.
func TestQueryChecksReadinessBeforeDecoding(t *testing.T) {
	srv := NewWarming("wal replay")
	for _, ep := range queryEndpoints {
		body := &endlessBody{prefix: `{"instances":[[`}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep, io.NopCloser(body)))
		wantStatus(t, rec, http.StatusServiceUnavailable)
		if body.n != 0 {
			t.Fatalf("%s: warming server read %d body bytes before answering 503", ep, body.n)
		}
	}
}

// FuzzBuildQuery feeds arbitrary bytes through decodeBody → buildQuery,
// the way every query endpoint does, and through decodeBody →
// requestObject, the way /insert does. The pipeline must never panic, and
// must either refuse the body with a typed 400/413 or hand on an object it
// can trust: 1..maxInstances instances of the dataset's dimensionality,
// finite coordinates, non-negative probabilities that sum to 1.
func FuzzBuildQuery(f *testing.F) {
	for _, tc := range malformedInputs {
		f.Add([]byte(wireBody("/query", tc.instances, tc.tail)))
		if tc.insert {
			f.Add([]byte(wireBody("/insert", tc.instances, tc.tail)))
		}
	}
	f.Add([]byte(`{"instances":[[1,2,3],[4,5,6]],"weights":[1e308,1e308],"operator":"PSD","k":2}`))
	const dim = 3
	f.Fuzz(func(t *testing.T, body []byte) {
		var req QueryRequest
		if fuzzDecode(t, body, &req) {
			q, err := buildQuery(dim, req.Operator, req.Metric, req.K, false, ObjectJSON{Instances: req.Instances, Probs: req.Weights})
			if err == nil { // otherwise the endpoint answers 400
				if q.k < 1 || q.metric == nil {
					t.Fatalf("accepted query k=%d metric=%v", q.k, q.metric)
				}
				checkRequestObject(t, q.obj, dim)
			}
		}
		var obj ObjectJSON
		if fuzzDecode(t, body, &obj) {
			if o, err := requestObject(obj, dim, false); err == nil {
				checkRequestObject(t, o, dim)
			}
		}
	})
}

// fuzzDecode runs body through decodeBody into v; a refused body must be
// answered with a typed 400 or 413.
func fuzzDecode(t *testing.T, body []byte, v any) bool {
	rec := httptest.NewRecorder()
	if decodeBody(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)), v) {
		return true
	}
	if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("refused body answered %d", rec.Code)
	}
	if c := errCode(t, rec); c != errorCode(rec.Code) {
		t.Fatalf("status %d carries code %q", rec.Code, c)
	}
	return false
}

// checkRequestObject is what an accepted request object must be.
func checkRequestObject(t *testing.T, o *uncertain.Object, dim int) {
	if o.Len() < 1 || o.Len() > maxInstances || o.Dim() != dim {
		t.Fatalf("accepted %d instances of dim %d", o.Len(), o.Dim())
	}
	var sum float64
	for i := 0; i < o.Len(); i++ {
		for _, v := range o.Instance(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted coordinate %v", v)
			}
		}
		p := o.Prob(i)
		if !(p >= 0 && p <= 1) {
			t.Fatalf("accepted probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("accepted weights normalise to %v, want 1", sum)
	}
}

// TestWireObjectRoundTrip: an object sent out with ToJSON and read back in
// — as a request object under the shard protocol's normalized
// probabilities, or as a shard reply's candidate — keeps its ID, its label
// and every coordinate and probability bit, and equals referenceDecode's
// object bit for bit.
func TestWireObjectRoundTrip(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 40, M: 6, Seed: 151})
	rng := rand.New(rand.NewSource(152))
	for _, base := range ds.Objects {
		w := make([]float64, base.Len())
		for i := range w {
			w[i] = 0.1 + 3*rng.Float64()
		}
		o := uncertain.MustNew(base.ID(), base.Points(), w).SetLabel(fmt.Sprintf("obj-%d", base.ID()))
		raw, err := json.Marshal(ToJSON(o))
		if err != nil {
			t.Fatal(err)
		}
		var wire ObjectJSON
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatal(err)
		}
		want := referenceDecode(t, wire)
		reply, err := wire.Object(o.Dim(), true)
		if err != nil {
			t.Fatal(err)
		}
		request, err := requestObject(wire, o.Dim(), true)
		if err != nil {
			t.Fatal(err)
		}
		for path, got := range map[string]*uncertain.Object{"reply": reply, "request": request} {
			for _, ref := range []*uncertain.Object{want, o} {
				if got.ID() != ref.ID() || got.Label() != ref.Label() || got.Len() != ref.Len() {
					t.Fatalf("%s path: object %d %q with %d instances, want %d %q with %d",
						path, got.ID(), got.Label(), got.Len(), ref.ID(), ref.Label(), ref.Len())
				}
				for i := 0; i < got.Len(); i++ {
					if math.Float64bits(got.Prob(i)) != math.Float64bits(ref.Prob(i)) {
						t.Fatalf("%s path: object %d probability %d: %v, want %v", path, o.ID(), i, got.Prob(i), ref.Prob(i))
					}
					for j, v := range got.Instance(i) {
						if math.Float64bits(v) != math.Float64bits(ref.Instance(i)[j]) {
							t.Fatalf("%s path: object %d instance %d: %v, want %v", path, o.ID(), i, got.Instance(i), ref.Instance(i))
						}
					}
				}
			}
		}
	}
}

// referenceDecode is the band decode written out by hand: rows as points,
// probabilities verbatim (FromNormalized), the label set.
func referenceDecode(t *testing.T, c ObjectJSON) *uncertain.Object {
	t.Helper()
	pts := make([]geom.Point, len(c.Instances))
	for i, row := range c.Instances {
		pts[i] = geom.Point(row)
	}
	o, err := uncertain.FromNormalized(c.ID, pts, c.Probs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Label != "" {
		o.SetLabel(c.Label)
	}
	return o
}

// TestShardQueryRefusesUnnormalizedProbs: probabilities sent as normalized
// must sum to one within uncertain.MassBound — half a unit is a 400 naming
// the sum, not a query that silently never dominates — while the same
// vector as weights is normalized and served.
func TestShardQueryRefusesUnnormalizedProbs(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 40, M: 4, Seed: 141}) // dim 3
	srv, err := New(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"instances":[[1,2,3],[4,5,6]],"probs":[0.25,0.25],"normalized":true,"operator":"PSD"}`, 400},
		{`{"instances":[[1,2,3],[4,5,6]],"probs":[0.25,0.25],"operator":"PSD"}`, 200},
		{`{"instances":[[1,2,3],[4,5,6]],"probs":[0.5,0.5],"normalized":true,"operator":"PSD"}`, 200},
	} {
		rec := do(t, srv, http.MethodPost, "/shard/query", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, rec.Code, tc.status, rec.Body)
			continue
		}
		if tc.status == 400 && (errCode(t, rec) != "bad_request" || !strings.Contains(rec.Body.String(), "sum")) {
			t.Errorf("%s: %s, want a bad_request naming the sum", tc.body, rec.Body)
		}
	}
}

// TestShardQueryRefusesRetiredFilterField: a shard searches with every
// filter and the filters wire field is gone, so a body that still carries
// it is refused with a 400 naming it, rather than served under a
// configuration the sender may think it asked for. The same body without
// the field is served.
func TestShardQueryRefusesRetiredFilterField(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 40, M: 4, Seed: 141}) // dim 3
	srv, err := New(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"instances":[[1,2,3]],"operator":"SSD"%s}`
	rec := do(t, srv, http.MethodPost, "/shard/query", fmt.Sprintf(body, `,"filters":{"stat_pruning":true,"geometric":true}`))
	if rec.Code != 400 || errCode(t, rec) != "bad_request" || !strings.Contains(rec.Body.String(), "filters") {
		t.Errorf("body with the retired field: status %d (%s), want a bad_request naming it", rec.Code, rec.Body)
	}
	if rec := do(t, srv, http.MethodPost, "/shard/query", fmt.Sprintf(body, "")); rec.Code != 200 {
		t.Errorf("body without it: status %d (%s)", rec.Code, rec.Body)
	}
}
