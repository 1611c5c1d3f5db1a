// Package clusterfault is the deterministic chaos harness for the
// scatter-gather tier: in-process shard servers wrapped with seeded fault
// injectors (drop, delay, 5xx, half-response, flap; per replica, kill,
// slow and fail-next switches) plus a TestCluster
// builder that wires a Router over them. The suite invariant it exists to
// drive: never a panic, never silently wrong — every answer the router
// serves is either byte-equal to the single-node answer or flagged
// Incomplete with accurate UnreachableShards counts.
package clusterfault

import (
	"net/http"
	"sync/atomic"
	"time"

	"spatialdom/internal/faults"
)

// FaultMode is what the injector does to one request.
type FaultMode int

const (
	// Pass forwards the request untouched.
	Pass FaultMode = iota
	// Drop hijacks the connection and closes it before any response byte
	// — the client sees a reset/EOF.
	Drop
	// Err500 answers 500 without touching the shard server.
	Err500
	// Half writes response headers and a truncated JSON body, then closes
	// — the client's decoder sees unexpected EOF mid-object.
	Half
	// Delay sleeps a few milliseconds, then forwards.
	Delay
)

// InjectorConfig sets per-request fault probabilities in parts per 1024.
// The zero value injects nothing.
type InjectorConfig struct {
	Drop   int
	Err500 int
	Half   int
	Delay  int
	// DelayFor bounds an injected delay (default 5ms).
	DelayFor time.Duration
	// FlapEvery puts the replica into a dead window (FlapDown consecutive
	// requests all dropped) every FlapEvery-th request; 0 disables.
	FlapEvery int
	FlapDown  int
}

// Injector wraps one replica's handler with seeded, deterministic fault
// injection. Decisions derive from splitmix64(seed, request counter), so
// a given seed replays the same fault schedule regardless of scheduling —
// the request *arrival order* can race, but the suite's assertions never
// depend on which request draws which fault, only on the server never
// lying.
type Injector struct {
	inner http.Handler
	cfg   InjectorConfig
	seed  uint64
	reqs  atomic.Uint64
	// killed simulates a dead process: every request is dropped until
	// Restore. Tests flip it to take a replica down mid-load.
	killed atomic.Bool
	// chaos gates probabilistic injection, so a cluster can boot and be
	// discovered cleanly before the storm starts.
	chaos atomic.Bool
	// slow delays every request (a time.Duration); failNext counts the
	// requests still to answer 500. Both apply with chaos off.
	slow     atomic.Int64
	failNext atomic.Int64

	// flapState counts remaining dropped requests of an active flap.
	flapState atomic.Int64

	// Injected fault counters, for the suite to report coverage.
	Drops, Errs, Halves, Delays atomic.Uint64
}

// NewInjector wraps inner with the seeded fault schedule. Chaos starts
// disabled; call StartChaos once the cluster is discovered.
func NewInjector(inner http.Handler, seed uint64, cfg InjectorConfig) *Injector {
	if cfg.DelayFor <= 0 {
		cfg.DelayFor = 5 * time.Millisecond
	}
	return &Injector{inner: inner, cfg: cfg, seed: seed}
}

// Kill simulates the replica's process dying: every subsequent request is
// dropped at the socket.
func (in *Injector) Kill() { in.killed.Store(true) }

// Restore brings a killed replica back.
func (in *Injector) Restore() { in.killed.Store(false) }

// Slow makes the replica answer every request d late (0 restores it).
func (in *Injector) Slow(d time.Duration) { in.slow.Store(int64(d)) }

// FailNext answers the next n requests 500.
func (in *Injector) FailNext(n int) { in.failNext.Store(int64(n)) }

// StartChaos enables probabilistic injection; StopChaos disables it.
func (in *Injector) StartChaos() { in.chaos.Store(true) }

// StopChaos disables probabilistic injection (kills still apply).
func (in *Injector) StopChaos() { in.chaos.Store(false) }

// splitmix64 is the same finalizer the faults package uses for jitter:
// cheap, well mixed, deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide maps the n-th request onto a fault mode.
func (in *Injector) decide(n uint64) FaultMode {
	if in.cfg.FlapEvery > 0 {
		if rem := in.flapState.Load(); rem > 0 {
			in.flapState.Add(-1)
			return Drop
		}
		if n%uint64(in.cfg.FlapEvery) == uint64(in.cfg.FlapEvery)-1 {
			down := in.cfg.FlapDown
			if down < 1 {
				down = 3
			}
			in.flapState.Store(int64(down - 1))
			return Drop
		}
	}
	h := splitmix64(in.seed ^ n)
	roll := int(h & 1023)
	switch {
	case roll < in.cfg.Drop:
		return Drop
	case roll < in.cfg.Drop+in.cfg.Err500:
		return Err500
	case roll < in.cfg.Drop+in.cfg.Err500+in.cfg.Half:
		return Half
	case roll < in.cfg.Drop+in.cfg.Err500+in.cfg.Half+in.cfg.Delay:
		return Delay
	default:
		return Pass
	}
}

func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if in.killed.Load() {
		abortConn(w)
		return
	}
	if d := time.Duration(in.slow.Load()); d > 0 {
		faults.Sleep(r.Context(), d)
	}
	if in.failNext.Load() > 0 && in.failNext.Add(-1) >= 0 {
		err500(w)
		return
	}
	if !in.chaos.Load() {
		in.inner.ServeHTTP(w, r)
		return
	}
	switch in.decide(in.reqs.Add(1) - 1) {
	case Drop:
		in.Drops.Add(1)
		abortConn(w)
	case Err500:
		in.Errs.Add(1)
		err500(w)
	case Half:
		in.Halves.Add(1)
		halfResponse(w)
	case Delay:
		in.Delays.Add(1)
		// ctx-aware: a canceled (hedged-out) request stops sleeping.
		faults.Sleep(r.Context(), in.cfg.DelayFor)
		in.inner.ServeHTTP(w, r)
	default:
		in.inner.ServeHTTP(w, r)
	}
}

// err500 answers the way a failing shard server does.
func err500(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	w.Write([]byte(`{"error":"injected fault","code":"internal"}` + "\n"))
}

// abortConn kills the TCP connection without a response. Falls back to
// net/http's abort panic when the writer cannot hijack (HTTP/2) — either
// way the client sees a transport error, never a clean status.
func abortConn(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	conn.Close()
}

// halfResponse advertises a full JSON body and delivers half of it: the
// status line is a healthy 200, the decoder chokes mid-object. This is
// the nastiest failure shape — only response validation catches it.
func halfResponse(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	defer conn.Close()
	buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n")
	buf.WriteString(`{"candidates":[{"id":1,"instances":[[`)
	buf.Flush()
}
