package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/faults"
	"spatialdom/internal/uncertain"
)

// fakeBackend scripts the Backend (and optional capability) surfaces so
// the HTTP layer's robustness paths can be driven without a real index.
type fakeBackend struct {
	dim     int
	search  func(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error)
	healthy error
	stats   faults.Stats
}

func (f *fakeBackend) Len() int { return 10 }
func (f *fakeBackend) Dim() int { return f.dim }
func (f *fakeBackend) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	return f.search(ctx, q, op, k, opts)
}
func (f *fakeBackend) Healthy(ctx context.Context) error { return f.healthy }
func (f *fakeBackend) FaultStats() faults.Stats          { return f.stats }

func queryBody() map[string]interface{} {
	return map[string]interface{}{
		"instances": [][]float64{{1, 2}},
		"operator":  "PSD",
	}
}

func TestPanicRecoveredAs500(t *testing.T) {
	b := &fakeBackend{dim: 2, search: func(context.Context, *uncertain.Object, core.Operator, int, core.SearchOptions) (*core.Result, error) {
		panic("backend exploded")
	}}
	srv := NewBackend(b)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var errBody errorJSON
	if code := postJSON(t, ts.URL+"/query", queryBody(), &errBody); code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", code)
	}
	if errBody.Code != "internal" || !strings.Contains(errBody.Error, "backend exploded") {
		t.Fatalf("body = %+v", errBody)
	}
	if srv.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1", srv.Panics())
	}

	// The process keeps serving, and the liveness report turns degraded.
	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz after panic = %d", code)
	}
	if health.Status != "degraded" || health.Panics != 1 {
		t.Fatalf("health = %+v", health)
	}
}

func TestPartialResultAnswers206(t *testing.T) {
	b := &fakeBackend{dim: 2, search: func(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
		res := &core.Result{Operator: op, Examined: 5, Incomplete: true}
		pe := &core.PartialResultError{Result: res, UnreadableNodes: 2, UnreadableObjects: 1}
		return res, pe
	}}
	ts := httptest.NewServer(NewBackend(b))
	defer ts.Close()

	var resp QueryResponse
	if code := postJSON(t, ts.URL+"/query", queryBody(), &resp); code != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", code)
	}
	if !resp.Incomplete || resp.UnreadableNodes != 2 || resp.UnreadableObjects != 1 {
		t.Fatalf("response not flagged: %+v", resp)
	}
}

func TestCompleteResultStays200(t *testing.T) {
	b := &fakeBackend{dim: 2, search: func(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
		return &core.Result{Operator: op}, nil
	}}
	ts := httptest.NewServer(NewBackend(b))
	defer ts.Close()
	var resp QueryResponse
	if code := postJSON(t, ts.URL+"/query", queryBody(), &resp); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Incomplete {
		t.Fatal("complete result flagged incomplete")
	}
}

func TestHealthzReportsBackendCapabilities(t *testing.T) {
	b := &fakeBackend{
		dim:   2,
		stats: faults.Stats{ChecksumFailures: 4, QuarantinedPages: 3},
		search: func(context.Context, *uncertain.Object, core.Operator, int, core.SearchOptions) (*core.Result, error) {
			return &core.Result{}, nil
		},
	}
	ts := httptest.NewServer(NewBackend(b))
	defer ts.Close()

	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "degraded" || health.Reason != "quarantined_pages" {
		t.Fatalf("quarantined pages should degrade status: %+v", health)
	}
	if health.QuarantinedPages == nil || *health.QuarantinedPages != 3 {
		t.Fatalf("quarantined_pages = %v", health.QuarantinedPages)
	}
	if health.Faults == nil || health.Faults.ChecksumFailures != 4 {
		t.Fatalf("faults = %+v", health.Faults)
	}
}

func TestReadyzFollowsHealthChecker(t *testing.T) {
	b := &fakeBackend{dim: 2, search: func(context.Context, *uncertain.Object, core.Operator, int, core.SearchOptions) (*core.Result, error) {
		return &core.Result{}, nil
	}}
	srv := NewBackend(b)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var body map[string]interface{}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != 200 || body["ready"] != true {
		t.Fatalf("healthy backend: code=%d body=%v", code, body)
	}

	b.healthy = errors.New("super page unreadable")
	body = nil
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy backend: code=%d, want 503", code)
	}
	if body["ready"] != false || !strings.Contains(body["error"].(string), "super page") {
		t.Fatalf("body = %v", body)
	}
}

// TestReadyzWithoutCapabilityIsReady: the in-memory backend implements no
// HealthChecker and must be ready by construction.
func TestReadyzWithoutCapabilityIsReady(t *testing.T) {
	ts, _ := newTestServer(t)
	var body map[string]interface{}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != 200 || body["ready"] != true {
		t.Fatalf("code=%d body=%v", code, body)
	}
}
