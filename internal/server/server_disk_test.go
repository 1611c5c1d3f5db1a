package server

// The server must front the disk backend identically to the in-memory one
// (same candidates over HTTP), with the enumeration endpoints degrading to
// 501 — the nncserver -disk serving path.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
)

func TestServerDiskBackend(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 120, M: 5, EdgeLen: 400, Seed: 91})
	path := filepath.Join(t.TempDir(), "srv.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	disk, err := diskindex.Build(pager.NewPool(pf, 64), ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	diskSrv := NewBackend(disk)
	memSrv, err := New(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}

	q := ds.Queries(1, 4, 200, 92)[0]
	inst := make([][]float64, q.Len())
	for i := range inst {
		inst[i] = q.Instance(i)
	}
	body, _ := json.Marshal(QueryRequest{Instances: inst, Operator: "PSD"})

	post := func(s *Server) QueryResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	got, want := post(diskSrv), post(memSrv)
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("disk served %d candidates, memory %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		if got.Candidates[i].ID != want.Candidates[i].ID {
			t.Fatalf("candidate %d: disk %d, memory %d", i, got.Candidates[i].ID, want.Candidates[i].ID)
		}
	}

	// Health works; enumeration answers 501 on the disk backend.
	rec := httptest.NewRecorder()
	diskSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	for _, path := range []string{"/objects", "/objects/1"} {
		rec := httptest.NewRecorder()
		diskSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotImplemented {
			t.Fatalf("%s status %d, want 501", path, rec.Code)
		}
		// The 501 must carry the same JSON error shape as every other
		// error response, not a bare status.
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s 501 Content-Type = %q, want application/json", path, ct)
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s 501 body is not JSON: %v (%q)", path, err, rec.Body)
		}
		if e.Error == "" || e.Code != "not_implemented" {
			t.Fatalf("%s 501 body = %+v, want non-empty error and code=not_implemented", path, e)
		}
	}
}

var _ core.Backend = (*diskindex.Index)(nil)
