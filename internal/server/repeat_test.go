package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
)

// TestRepeatAnswerAllocFree: below net/http, a repeated /query costs the
// door's alias lookup and the appender writing into a reused buffer, and
// neither allocates. The bytes are the ones the server sent for the body
// the first time.
func TestRepeatAnswerAllocFree(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 200, M: 6, Seed: 171})
	store, err := front.NewMemStore(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	door := front.NewDoor(store, front.DoorConfig{})
	srv := server.NewBackend(door)
	q := ds.Queries(1, 8, 200, 172)[0]
	rows := make([][]float64, q.Len())
	for i := range rows {
		rows[i] = q.Instance(i)
	}
	body, err := json.Marshal(server.QueryRequest{Instances: rows, Operator: "PSD", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("filling query: %d %s", rec.Code, rec.Body)
	}

	var buf []byte
	allocs := testing.AllocsPerRun(100, func() {
		res, op, k := door.Repeat(body)
		if res == nil {
			t.Fatal("the filling body has no alias")
		}
		buf = server.AppendQuery(buf[:0], op.String(), k, res, nil)
	})
	if allocs != 0 {
		t.Fatalf("a repeat's answer allocates %.1f times, want 0", allocs)
	}
	if !bytes.Equal(append(buf, '\n'), rec.Body.Bytes()) {
		t.Fatalf("repeat answer\n%s\nfirst answer\n%s", buf, rec.Body.Bytes())
	}
}
