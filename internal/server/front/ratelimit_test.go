package front

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestRateLimiterSweepUnderConcurrentAllow drives allow from several
// goroutines over 50 client keys with a maxIdle so small that nearly every
// new bucket's sweep reclaims others: the sweep reads buckets other
// callers are refilling, so under -race a bucket touched outside its
// shard's lock is reported as a data race.
func TestRateLimiterSweepUnderConcurrentAllow(t *testing.T) {
	rl := newRateLimiter(1000, 10)
	rl.maxIdle = time.Nanosecond
	const workers, keys, rounds = 4, 50, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rl.allow("client-" + strconv.Itoa((i*7+w*13)%keys))
			}
		}(w)
	}
	wg.Wait()
	if n := rl.clients(); n < 1 || n > keys {
		t.Fatalf("tracked %d clients, want 1..%d", n, keys)
	}
}

// TestRateLimiterOffIsNil: a zero rate builds no limiter, so a request is
// never keyed by client, and the clients gauge reads 0.
func TestRateLimiterOffIsNil(t *testing.T) {
	if rl := newRateLimiter(0, 5); rl != nil {
		t.Fatal("rate 0 built a limiter")
	}
	var rl *rateLimiter
	if n := rl.clients(); n != 0 {
		t.Fatalf("nil limiter tracks %d clients", n)
	}
}
