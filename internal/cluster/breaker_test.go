package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spatialdom/internal/faults"
)

func TestBreakerTripAndRecover(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := &breaker{cooldown: time.Second}

	if !b.allow() {
		t.Fatal("new breaker must be closed")
	}
	if b.failure(t0) {
		t.Fatal("first failure must not trip")
	}
	if b.failure(t0) {
		t.Fatal("second failure must not trip")
	}
	if !b.failure(t0) {
		t.Fatal("third failure must trip (threshold 3)")
	}
	if b.allow() {
		t.Fatal("open breaker must fail fast")
	}
	if b.tryProbe(t0.Add(500 * time.Millisecond)) {
		t.Fatal("probe before cooldown must be refused")
	}
	if !b.tryProbe(t0.Add(time.Second)) {
		t.Fatal("probe after cooldown must be granted")
	}
	if b.tryProbe(t0.Add(time.Second)) {
		t.Fatal("second concurrent probe must be refused while one is in flight")
	}
	// Failed probe reopens and restarts the cooldown clock.
	b.probeResult(false, t0.Add(time.Second))
	if b.allow() {
		t.Fatal("breaker must stay open after a failed probe")
	}
	if b.tryProbe(t0.Add(1500 * time.Millisecond)) {
		t.Fatal("cooldown must restart after the failed probe")
	}
	if !b.tryProbe(t0.Add(2 * time.Second)) {
		t.Fatal("probe after restarted cooldown must be granted")
	}
	b.probeResult(true, t0.Add(2*time.Second))
	if !b.allow() {
		t.Fatal("successful probe must close the breaker")
	}

	// The failure streak must have been reset by recovery.
	if b.failure(t0.Add(3 * time.Second)) {
		t.Fatal("first failure after recovery must not trip")
	}
	b.success()
	if b.failure(t0.Add(4*time.Second)) || b.failure(t0.Add(4*time.Second)) {
		t.Fatal("success must reset the consecutive-failure streak")
	}
}

func TestBreakerSuccessWhileHalfOpen(t *testing.T) {
	t0 := time.Unix(0, 0)
	b := &breaker{cooldown: time.Second}
	for i := 0; i < breakerThreshold; i++ {
		b.failure(t0)
	}
	if !b.tryProbe(t0.Add(time.Second)) {
		t.Fatal("probe must be granted")
	}
	// A hedged request succeeding against this replica while the probe is
	// in flight must not close the breaker out from under the probe owner.
	b.success()
	if b.allow() {
		t.Fatal("probe in flight: breaker must not close on side-channel success")
	}
	b.probeResult(true, t0.Add(time.Second))
	if !b.allow() {
		t.Fatal("probe success must close")
	}
}

// TestDeadlineBlamesReplicasInFlight: the primary answers 500 after the
// hedge has gone out, and the hedge hangs past the attempt deadline. Each
// replica failed once, so each breaker counts one failure: the primary's
// when its 500 arrives, the hedge's when the deadline fires.
func TestDeadlineBlamesReplicasInFlight(t *testing.T) {
	failLate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		faults.Sleep(r.Context(), 4*coldHedge)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer failLate.Close()
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // until the body is read, a client hanging up does not end r.Context()
		<-r.Context().Done()
	}))
	defer hang.Close()

	rt, err := New(Config{Shards: [][]string{{failLate.URL, hang.URL}}, ShardTimeout: 16 * coldHedge})
	if err != nil {
		t.Fatal(err)
	}
	sh := rt.shards[0]
	if _, _, err := rt.attempt(context.Background(), sh, sh.replicas[0], []byte(`{}`)); !faults.IsUnavailable(err) {
		t.Fatalf("attempt: %v, want unavailable", err)
	}
	if st := rt.Stats(); st.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", st.Hedges)
	}
	for i, rep := range sh.replicas {
		if rep.br.failures != 1 {
			t.Fatalf("replica %d (%s): %d failures counted, want 1", i, rep.url, rep.br.failures)
		}
	}
}
