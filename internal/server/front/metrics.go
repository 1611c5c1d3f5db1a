package front

// Hand-rolled Prometheus text exposition (format 0.0.4) — counters,
// gauges and cumulative histograms, stdlib only. The registry renders
// whatever it holds on each scrape; callback-backed metrics (GaugeFunc /
// CounterFunc) pull their value at render time, so backend counters that
// already exist as atomics elsewhere (fault stats, pool stats, Door
// stats) are exposed without double bookkeeping.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// metric is anything that can render its samples in exposition format
// under a family header the registry writes.
type metric interface {
	family() (name, help, typ string)
	render(w io.Writer)
}

// Registry is an ordered collection of metrics with one HTTP handler.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m metric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.add(c)
	return c
}

// CounterFunc registers a counter whose value is pulled from f at scrape
// time — for counters that already live elsewhere as atomics.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.add(&funcMetric{name: name, help: help, typ: "counter", f: f})
}

// GaugeFunc registers a gauge pulled from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.add(&funcMetric{name: name, help: help, typ: "gauge", f: f})
}

// Histogram registers a cumulative histogram labelled op="op" with the
// given upper bounds (ascending; +Inf is implicit); op is written as it
// is, so it is a plain word (the handler's endpoint classes). The members
// of one family — one name under several op values — register one after
// another, so the family renders one header.
func (r *Registry) Histogram(name, help, op string, buckets []float64) *Histogram {
	h := &Histogram{name: name, help: help, op: op, bounds: buckets}
	h.counts = make([]atomic.Int64, len(buckets)+1)
	r.add(h)
	return h
}

// ServeHTTP renders every registered metric, each family's HELP/TYPE
// header once, before its first member.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	last := ""
	for _, m := range ms {
		if name, help, typ := m.family(); name != last {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			last = name
		}
		m.render(w)
	}
}

// Counter is an atomic monotone counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds 1; Value reads the count.
func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) family() (string, string, string) { return c.name, c.help, "counter" }

func (c *Counter) render(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// funcMetric is a pull-valued counter or gauge.
type funcMetric struct {
	name, help, typ string
	f               func() float64
}

func (m *funcMetric) family() (string, string, string) { return m.name, m.help, m.typ }

func (m *funcMetric) render(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.f()))
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: one atomic add into the first bucket whose bound holds the
// value, plus sum/count atomics (sum in microseconds of fixed point to
// stay integer).
type Histogram struct {
	name, help, op string
	bounds         []float64
	counts         []atomic.Int64 // per-bucket (non-cumulative); last = +Inf
	sumMicro       atomic.Int64   // sum × 1e6, rendered back to seconds
	count          atomic.Int64
}

// Observe records one value (seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sumMicro.Add(int64(v * 1e6))
	h.count.Add(1)
}

func (h *Histogram) family() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) render(w io.Writer) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{op=\"%s\",le=\"%s\"} %d\n", h.name, h.op, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{op=\"%s\",le=\"+Inf\"} %d\n", h.name, h.op, cum)
	fmt.Fprintf(w, "%s_sum{op=\"%s\"} %s\n", h.name, h.op, formatFloat(float64(h.sumMicro.Load())/1e6))
	fmt.Fprintf(w, "%s_count{op=\"%s\"} %d\n", h.name, h.op, h.count.Load())
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// DefBuckets is the default latency bucket ladder (seconds): 100µs–10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}
