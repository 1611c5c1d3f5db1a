package front

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// GET /objects lists the store while deletes run. A delete moves the
// index's last object into the gap and clears the last slot, so the list
// the handler walks must be a copy made under the store's lock, not the
// index's own slice: that one races the delete (a data race under -race,
// nil objects without it, on which the handler panics).
func TestObjectsDuringDeletes(t *testing.T) {
	const n, deletes = 400, 300
	h, _, door, _ := newStack(t, 41, n, Config{MaxInFlight: -1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := 1; id <= deletes; id++ {
			if ok, err := door.Delete(id); err != nil || !ok {
				t.Errorf("delete(%d) = %v, %v", id, ok, err)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/objects", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET /objects: %d %s", w.Code, w.Body)
		}
	}
	if got := door.Len(); got != n-deletes {
		t.Fatalf("%d objects left, want %d", got, n-deletes)
	}
}
