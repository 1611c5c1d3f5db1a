package front

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRegistryExpositionGolden pins the text a bare Registry renders, byte
// for byte: one HELP/TYPE header per family, a histogram family's members
// under their op label with cumulative buckets, and values in Go's
// shortest float form.
func TestRegistryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sd_test_total", "A counter.")
	c.Inc()
	c.Inc()
	r.CounterFunc("sd_test_pulled_total", "A pulled counter.", func() float64 { return 7 })
	r.GaugeFunc("sd_test_gauge", "A gauge.", func() float64 { return 2.5 })
	buckets := []float64{0.1, 1}
	a := r.Histogram("sd_test_seconds", "A histogram.", "a", buckets)
	b := r.Histogram("sd_test_seconds", "A histogram.", "b", buckets)
	a.Observe(0.05)
	b.Observe(0.5)
	b.Observe(3)

	w := httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	const want = `# HELP sd_test_total A counter.
# TYPE sd_test_total counter
sd_test_total 2
# HELP sd_test_pulled_total A pulled counter.
# TYPE sd_test_pulled_total counter
sd_test_pulled_total 7
# HELP sd_test_gauge A gauge.
# TYPE sd_test_gauge gauge
sd_test_gauge 2.5
# HELP sd_test_seconds A histogram.
# TYPE sd_test_seconds histogram
sd_test_seconds_bucket{op="a",le="0.1"} 1
sd_test_seconds_bucket{op="a",le="1"} 1
sd_test_seconds_bucket{op="a",le="+Inf"} 1
sd_test_seconds_sum{op="a"} 0.05
sd_test_seconds_count{op="a"} 1
sd_test_seconds_bucket{op="b",le="0.1"} 0
sd_test_seconds_bucket{op="b",le="1"} 1
sd_test_seconds_bucket{op="b",le="+Inf"} 2
sd_test_seconds_sum{op="b"} 3.5
sd_test_seconds_count{op="b"} 2
`
	if got := w.Body.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
