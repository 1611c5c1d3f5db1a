package cluster

// Per-replica circuit breaker: closed → (breakerThreshold consecutive
// failures) → open → (cooldown elapses) → half-open → closed on a successful
// /healthz probe or reopened on a failed one. The router consults the
// breaker before every attempt, so a dead replica costs the fleet one
// failed request per cooldown window instead of one per query — and a
// recovered replica is readmitted by the probe without any restart.

import (
	"sync"
	"time"
)

// breakerState is reported in /healthz as server.ReplicaHealth.Breaker;
// String gives the wire strings.
type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerThreshold is the consecutive-failure count that trips a breaker.
const breakerThreshold = 3

// breaker tracks one replica's health. All methods are safe for
// concurrent use; the mutex is never held across I/O (the probe itself
// runs outside, between Acquire-style calls).
type breaker struct {
	cooldown time.Duration

	mu       sync.Mutex
	failures int          // consecutive failures while closed
	state    breakerState // half-open is entered by tryProbe, not by time alone
	openedAt time.Time
	probing  bool // a half-open probe is in flight; others keep failing fast
}

// allow reports whether a request may be sent to this replica right now
// without probing: the breaker is closed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == stateClosed
}

// tryProbe claims the half-open probe slot if the breaker is open and its
// cooldown has elapsed. The caller that wins the claim must follow up
// with probeResult; everyone else keeps failing fast until it does.
func (b *breaker) tryProbe(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != stateOpen || b.probing || now.Sub(b.openedAt) < b.cooldown {
		return false
	}
	b.state = stateHalfOpen
	b.probing = true
	return true
}

// probeResult resolves a claimed half-open probe: success closes the
// breaker, failure reopens it (restarting the cooldown clock).
func (b *breaker) probeResult(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.state = stateClosed
		b.failures = 0
	} else {
		b.state = stateOpen
		b.openedAt = now
	}
}

// success records a served request, resetting the failure streak. A
// success while half-open also closes the breaker (the hedged request
// path can succeed before the probe resolves).
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state != stateClosed && !b.probing {
		b.state = stateClosed
	}
}

// failure records a failed request; breakerThreshold consecutive failures
// trip the breaker open. Reports whether this call performed the trip.
func (b *breaker) failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != stateClosed {
		if b.state == stateOpen {
			b.openedAt = now // refresh: still failing
		}
		return false
	}
	b.failures++
	if b.failures >= breakerThreshold {
		b.state = stateOpen
		b.openedAt = now
		return true
	}
	return false
}

// snapshot returns the state and, for an open breaker, when the next
// half-open probe becomes due (the zero time otherwise).
func (b *breaker) snapshot() (breakerState, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == stateOpen {
		return b.state, b.openedAt.Add(b.cooldown)
	}
	return b.state, time.Time{}
}
