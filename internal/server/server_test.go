package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
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
	var health map[string]interface{}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health["status"] != "ok" || health["objects"].(float64) != 120 {
		t.Fatalf("health = %v", health)
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
}

// The streaming endpoint yields one NDJSON line per candidate plus a
// summary, and the candidate set matches the non-streaming endpoint.
func TestQueryStream(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Queries(1, 4, 200, 64)[0]
	inst := make([][]float64, q.Len())
	for i := 0; i < q.Len(); i++ {
		inst[i] = append([]float64(nil), q.Instance(i)...)
	}
	raw, _ := json.Marshal(QueryRequest{Instances: inst, Operator: "SSSD"})
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var streamed []int
	var summary map[string]interface{}
	for dec.More() {
		var line map[string]interface{}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line["done"] == true {
			summary = line
			break
		}
		streamed = append(streamed, int(line["id"].(float64)))
	}
	if summary == nil {
		t.Fatal("missing summary line")
	}
	if int(summary["candidates"].(float64)) != len(streamed) {
		t.Fatalf("summary count %v != streamed %d", summary["candidates"], len(streamed))
	}
	// Compare with the plain endpoint.
	var plain QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Instances: inst, Operator: "SSSD"}, &plain)
	if len(plain.Candidates) != len(streamed) {
		t.Fatalf("stream %d candidates, plain %d", len(streamed), len(plain.Candidates))
	}
	for i, c := range plain.Candidates {
		if c.ID != streamed[i] {
			t.Fatalf("stream order differs at %d", i)
		}
	}
	// Validation errors still work on the stream endpoint.
	resp2, err := http.Post(ts.URL+"/query/stream", "application/json",
		bytes.NewReader([]byte(`{"instances":[[1,2,3]],"operator":"XXX"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("bad operator on stream = %d", resp2.StatusCode)
	}
}

func TestNewRejectsBadObjects(t *testing.T) {
	a := uncertain.MustNew(1, []geom.Point{{0, 0}}, nil)
	b := uncertain.MustNew(1, []geom.Point{{1, 1}}, nil)
	if _, err := New([]*uncertain.Object{a, b}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}
