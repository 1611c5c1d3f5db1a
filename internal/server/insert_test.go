package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
)

// TestInsertAgreesOnMalformedInput runs the agreement table's object rows
// against /insert on a mutable backend: each gets the status and code the
// query endpoints give it, the instance bound included, and the
// well-formed object is accepted.
func TestInsertAgreesOnMalformedInput(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 40, M: 4, Seed: 141}) // dim 3
	store, err := front.NewMemStore(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewBackend(store)
	post := func(method, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, "/insert", strings.NewReader(body)))
		return rec
	}
	for _, tc := range server.InsertAgreement() {
		rec := post(tc.Method, tc.Body)
		var e struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != tc.Status || e.Code != tc.Code {
			t.Errorf("%s on /insert: status %d code %q, want %d %q (%s)", tc.Name, rec.Code, e.Code, tc.Status, tc.Code, rec.Body)
		}
	}
	if n := store.Len(); n != len(ds.Objects) {
		t.Fatalf("refused inserts left %d objects, want %d", n, len(ds.Objects))
	}
	if rec := post(http.MethodPost, `{"id":900001,"instances":[[1,2,3]]}`); rec.Code != http.StatusOK {
		t.Fatalf("well-formed insert: status %d (%s)", rec.Code, rec.Body)
	}
}
