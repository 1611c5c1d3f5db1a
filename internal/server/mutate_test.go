package server

// The mutation endpoints must commit through the mutable disk backend —
// an inserted object is immediately searchable, a deleted one disappears
// — and answer 501 on every backend that cannot mutate.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
)

// do runs one request against s and returns the recorder.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var r *bytes.Reader
	switch b := body.(type) {
	case nil:
		r = bytes.NewReader(nil)
	case string:
		r = bytes.NewReader([]byte(b))
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(buf)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, r))
	return rec
}

func wantStatus(t *testing.T, rec *httptest.ResponseRecorder, status int) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status %d, want %d: %s", rec.Code, status, rec.Body)
	}
}

func errCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body not JSON: %v (%q)", err, rec.Body)
	}
	return e.Code
}

func TestServerMutableDiskBackend(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 60, M: 4, EdgeLen: 400, Seed: 71})
	path := filepath.Join(t.TempDir(), "mut.pg")
	idx, err := diskindex.CreateFileMutable(path, ds.Objects[0].Dim(), &diskindex.MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for _, o := range ds.Objects[:50] {
		if err := idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewBackend(idx)

	// Insert: the committed object is immediately searchable — query at its
	// own instances, it must appear among the candidates.
	extra := ds.Objects[50]
	wantStatus(t, do(t, srv, http.MethodPost, "/insert", ToJSON(extra)), http.StatusOK)
	if idx.Len() != 51 {
		t.Fatalf("len after insert = %d, want 51", idx.Len())
	}
	inst := make([][]float64, extra.Len())
	for i := range inst {
		inst[i] = extra.Instance(i)
	}
	rec := do(t, srv, http.MethodPost, "/query", QueryRequest{Instances: inst, Operator: "PSD"})
	wantStatus(t, rec, http.StatusOK)
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range qr.Candidates {
		if c.ID == extra.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted object %d not among candidates %v", extra.ID(), qr.Candidates)
	}

	// Error mapping: duplicate id → 409, wrong dimensionality → 400,
	// malformed body → 400, wrong method → 405.
	rec = do(t, srv, http.MethodPost, "/insert", ToJSON(extra))
	wantStatus(t, rec, http.StatusConflict)
	if c := errCode(t, rec); c != "conflict" {
		t.Fatalf("duplicate insert code %q, want conflict", c)
	}
	wrongDim := ObjectJSON{ID: 999, Instances: [][]float64{{1, 2}, {3, 4}}, Probs: []float64{0.5, 0.5}}
	wantStatus(t, do(t, srv, http.MethodPost, "/insert", wrongDim), http.StatusBadRequest)
	wantStatus(t, do(t, srv, http.MethodPost, "/insert", `{"not json`), http.StatusBadRequest)
	wantStatus(t, do(t, srv, http.MethodGet, "/insert", nil), http.StatusMethodNotAllowed)

	// Delete: committed and gone from search; absent id → 404; repeat → 404.
	victim := ds.Objects[0]
	rec = do(t, srv, http.MethodPost, "/delete", DeleteRequest{ID: victim.ID()})
	wantStatus(t, rec, http.StatusOK)
	var mr MutationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Deleted || mr.Objects != 50 {
		t.Fatalf("delete response %+v, want deleted with 50 objects", mr)
	}
	inst = make([][]float64, victim.Len())
	for i := range inst {
		inst[i] = victim.Instance(i)
	}
	rec = do(t, srv, http.MethodPost, "/query", QueryRequest{Instances: inst, Operator: "PSD", K: 2})
	wantStatus(t, rec, http.StatusOK)
	qr = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	for _, c := range qr.Candidates {
		if c.ID == victim.ID() {
			t.Fatalf("deleted object %d still served as a candidate", victim.ID())
		}
	}
	rec = do(t, srv, http.MethodPost, "/delete", DeleteRequest{ID: victim.ID()})
	wantStatus(t, rec, http.StatusNotFound)
	wantStatus(t, do(t, srv, http.MethodPost, "/delete", DeleteRequest{ID: 1 << 30}), http.StatusNotFound)
}

// TestServerMutationNotImplemented pins the 501 contract for every
// backend without the Mutator capability: the in-memory index and a
// read-only disk handle.
func TestServerMutationNotImplemented(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 30, M: 4, EdgeLen: 400, Seed: 72})
	mem, err := New(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ro.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	disk, err := diskindex.Build(pager.NewPool(pf, 64), ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	ro := NewBackend(disk)

	for name, srv := range map[string]*Server{"memory": mem, "read-only disk": ro} {
		for _, ep := range []string{"/insert", "/delete"} {
			rec := do(t, srv, http.MethodPost, ep, DeleteRequest{ID: 1})
			wantStatus(t, rec, http.StatusNotImplemented)
			if c := errCode(t, rec); c != "not_implemented" {
				t.Fatalf("%s %s code %q, want not_implemented", name, ep, c)
			}
			if !strings.Contains(rec.Body.String(), "read-only") {
				t.Fatalf("%s %s body %q does not say read-only", name, ep, rec.Body)
			}
		}
	}
}
