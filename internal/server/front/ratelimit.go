package front

// Per-client rate limiting: classic token buckets, refilled lazily at
// read time (no background goroutine, no timers — a bucket's level is a
// pure function of its last-take timestamp). Buckets live in a sharded
// map keyed by client identity; an idle client's bucket is reclaimed by
// a bounded sweep piggybacked on inserts, so the table can't grow
// without bound under address churn.

import (
	"sync"
	"time"
)

// rateShards stripes the bucket table; client identity hashes are
// well-distributed (remote addresses / header values).
const rateShards = 16

// bucket is one client's token bucket, read and written only under its
// shard's lock. Levels are in tokens scaled by nanosecond fixed point:
// level is "tokens × 1e9" so refill math stays in integers.
type bucket struct {
	level int64 // current tokens × 1e9
	last  int64 // UnixNano of the last refill
}

// rateLimiter admits or sheds by client key.
type rateLimiter struct {
	ratePerSec float64 // tokens added per second
	burst      int64   // bucket capacity in tokens
	maxIdle    time.Duration

	shards [rateShards]struct {
		mu      sync.Mutex
		buckets map[string]*bucket
	}
}

// newRateLimiter builds a limiter granting ratePerSec requests/second
// with the given burst per client key; rate <= 0 means no limiting and
// returns nil.
func newRateLimiter(ratePerSec float64, burst int) *rateLimiter {
	if ratePerSec <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	rl := &rateLimiter{
		ratePerSec: ratePerSec,
		burst:      int64(burst),
		maxIdle:    time.Minute,
	}
	for i := range rl.shards {
		rl.shards[i].buckets = make(map[string]*bucket)
	}
	return rl
}

const tokenScale = int64(time.Second) // 1 token == 1e9 fixed-point units

// allow takes one token from key's bucket if available. The second
// return is the suggested wait until a token will exist — the
// Retry-After the shed response carries. A new client starts with a full
// burst, and its bucket's creation sweeps a few idle buckets from the
// shard — O(1) amortized table hygiene with no background work.
func (rl *rateLimiter) allow(key string) (ok bool, retryAfter time.Duration) {
	now := time.Now().UnixNano()
	sh := &rl.shards[shardOf(key, rateShards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.buckets[key]
	if b == nil {
		cutoff := now - int64(rl.maxIdle)
		scanned := 0
		for k, idle := range sh.buckets {
			if idle.last < cutoff {
				delete(sh.buckets, k)
			}
			if scanned++; scanned >= 8 {
				break
			}
		}
		b = &bucket{level: rl.burst * tokenScale, last: now}
		sh.buckets[key] = b
	}
	// Lazy refill since the last observation, capped at burst.
	if elapsed := now - b.last; elapsed > 0 {
		b.level += int64(float64(elapsed) * rl.ratePerSec)
		if max := rl.burst * tokenScale; b.level > max {
			b.level = max
		}
		b.last = now
	}
	if b.level >= tokenScale {
		b.level -= tokenScale
		return true, 0
	}
	deficit := tokenScale - b.level
	return false, time.Duration(float64(deficit) / rl.ratePerSec)
}

// clients reports the tracked client count (for /metrics); 0 when
// limiting is off.
func (rl *rateLimiter) clients() int {
	if rl == nil {
		return 0
	}
	n := 0
	for i := range rl.shards {
		sh := &rl.shards[i]
		sh.mu.Lock()
		n += len(sh.buckets)
		sh.mu.Unlock()
	}
	return n
}
