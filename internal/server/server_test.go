package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

func newTestServer(t *testing.T) (*httptest.Server, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: 120, M: 6, Seed: 61})
	srv, err := New(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, ds
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndObjects(t *testing.T) {
	ts, _ := newTestServer(t)
	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Objects == nil || *health.Objects != 120 {
		t.Fatalf("health = %+v", health)
	}
	var sum struct {
		Objects int `json:"objects"`
		Dim     int `json:"dim"`
	}
	if code := getJSON(t, ts.URL+"/objects", &sum); code != 200 {
		t.Fatalf("objects = %d", code)
	}
	if sum.Objects != 120 || sum.Dim != 3 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestGetObject(t *testing.T) {
	ts, ds := newTestServer(t)
	want := ds.Objects[0]
	var got ObjectJSON
	if code := getJSON(t, fmt.Sprintf("%s/objects/%d", ts.URL, want.ID()), &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.ID != want.ID() || len(got.Instances) != want.Len() {
		t.Fatalf("object = %+v", got)
	}
	if code := getJSON(t, ts.URL+"/objects/999999", nil); code != 404 {
		t.Fatalf("missing object status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/objects/abc", nil); code != 400 {
		t.Fatalf("bad id status = %d", code)
	}
}

// The HTTP query must return exactly what a direct library search returns.
func TestQueryMatchesLibrary(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Queries(1, 4, 200, 62)[0]
	inst := make([][]float64, q.Len())
	for i := 0; i < q.Len(); i++ {
		inst[i] = append([]float64(nil), q.Instance(i)...)
	}
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	for _, opName := range []string{"SSD", "SSSD", "PSD", "FSD", "F+SD"} {
		var resp QueryResponse
		code := postJSON(t, ts.URL+"/query", QueryRequest{
			Instances: inst,
			Operator:  opName,
		}, &resp)
		if code != 200 {
			t.Fatalf("%s: status %d", opName, code)
		}
		op, _ := core.ParseOperator(opName)
		want := idx.Search(q, op).IDs()
		var got []int
		for _, c := range resp.Candidates {
			got = append(got, c.ID)
		}
		sort.Ints(want)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("%s: got %v, want %v", opName, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", opName, got, want)
			}
		}
		if resp.Operator != op.String() || resp.ElapsedUS < 0 || resp.Checks < 0 {
			t.Fatalf("%s: metadata %+v", opName, resp)
		}
	}
}

func TestQueryWithKAndMetric(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Queries(1, 4, 200, 63)[0]
	inst := make([][]float64, q.Len())
	for i := 0; i < q.Len(); i++ {
		inst[i] = append([]float64(nil), q.Instance(i)...)
	}
	var resp1, resp3 QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Instances: inst, Operator: "SSSD", K: 1}, &resp1)
	postJSON(t, ts.URL+"/query", QueryRequest{Instances: inst, Operator: "SSSD", K: 3}, &resp3)
	if len(resp3.Candidates) < len(resp1.Candidates) {
		t.Fatalf("k=3 returned fewer candidates (%d) than k=1 (%d)",
			len(resp3.Candidates), len(resp1.Candidates))
	}
	for _, c := range resp3.Candidates {
		if c.Dominators >= 3 {
			t.Fatalf("candidate with %d dominators in 3-band", c.Dominators)
		}
	}
	var respL1 QueryResponse
	if code := postJSON(t, ts.URL+"/query", QueryRequest{
		Instances: inst, Operator: "SSSD", Metric: "manhattan",
	}, &respL1); code != 200 {
		t.Fatalf("manhattan query status %d", code)
	}
	if len(respL1.Candidates) == 0 {
		t.Fatal("no candidates under L1")
	}
}

func TestQueryValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		req  interface{}
		want int
	}{
		{"bad operator", QueryRequest{Instances: [][]float64{{1, 2, 3}}, Operator: "XXX"}, 400},
		{"bad metric", QueryRequest{Instances: [][]float64{{1, 2, 3}}, Metric: "hamming"}, 400},
		{"no instances", QueryRequest{Operator: "SSD"}, 400},
		{"dim mismatch", QueryRequest{Instances: [][]float64{{1, 2}}, Operator: "SSD"}, 400},
		{"bad k", QueryRequest{Instances: [][]float64{{1, 2, 3}}, Operator: "SSD", K: -2}, 400},
		{"unknown field", map[string]interface{}{"instances": [][]float64{{1, 2, 3}}, "bogus": 1}, 400},
	}
	for _, c := range cases {
		var e errorJSON
		if code := postJSON(t, ts.URL+"/query", c.req, &e); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		} else if e.Error == "" {
			t.Errorf("%s: missing error message", c.name)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /query = %d", resp.StatusCode)
	}
	// /query is the one public query route.
	for _, path := range []string{"/query/batch", "/query/stream"} {
		if code := postJSON(t, ts.URL+path, QueryRequest{Instances: [][]float64{{1, 2, 3}}}, nil); code != 404 {
			t.Errorf("POST %s = %d, want 404", path, code)
		}
	}
}

// repeatIndex is an in-memory index with a Repeater that keeps every
// answer under the body that asked for it, and counts what it repeats.
type repeatIndex struct {
	*core.Index
	kept    map[string]*core.Result
	repeats int
}

func (r *repeatIndex) Repeat(body []byte) (*core.Result, core.Operator, int) {
	res := r.kept[string(body)]
	if res == nil {
		return nil, 0, 0
	}
	r.repeats++
	return res, res.Operator, 1
}

func (r *repeatIndex) SearchBody(ctx context.Context, body []byte, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	res, err := r.SearchKCtx(ctx, q, op, k, opts)
	if err == nil {
		r.kept[string(body)] = res
	}
	return res, err
}

// TestQueryOverflowIsAnError: a query about 2e200 from the data has a
// min_dist of +Inf, which JSON cannot carry. Searched and then repeated,
// it is answered 400 with an error naming the overflow both times.
func TestQueryOverflowIsAnError(t *testing.T) {
	idx, err := core.NewIndex([]*uncertain.Object{uncertain.MustNew(1, []geom.Point{{1e200}}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	b := &repeatIndex{Index: idx, kept: map[string]*core.Result{}}
	ts := httptest.NewServer(NewBackend(b))
	defer ts.Close()
	for i := 0; i < 2; i++ {
		var e errorJSON
		if code := postJSON(t, ts.URL+"/query", QueryRequest{Instances: [][]float64{{-1e200}}, Operator: "SSD"}, &e); code != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, code)
		}
		if !strings.Contains(e.Error, "overflows") || e.Code != "bad_request" {
			t.Fatalf("request %d: error %+v does not name the overflow", i, e)
		}
	}
	if b.repeats != 1 {
		t.Fatalf("the second request took the repeat path %d times, want 1", b.repeats)
	}
}

func TestNewRejectsBadObjects(t *testing.T) {
	a := uncertain.MustNew(1, []geom.Point{{0, 0}}, nil)
	b := uncertain.MustNew(1, []geom.Point{{1, 1}}, nil)
	if _, err := New([]*uncertain.Object{a, b}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}
