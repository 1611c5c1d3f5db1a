// Package front is the serving tier's front door: a composable layer
// between the HTTP handlers and the search backend that makes a skewed
// query stream cheap without ever changing an answer.
//
// Two mechanisms stack, each usable alone:
//
//   - one table of answers (cache.go) keyed by the canonical query key: a
//     search in flight is a pending entry that identical arrivals join —
//     the buffer pool's loading-frame idea lifted from pages to whole
//     queries — and a finished answer stays as a sharded, byte-bounded LRU
//     entry, invalidated *precisely* on mutation using the dominance
//     geometry captured in core.AnswerShield: an insert or delete evicts
//     exactly the entries whose answer could change, and an epoch tag
//     protocol guarantees a stale answer is structurally unservable;
//
//   - admission control (ratelimit.go, handler.go): per-client token
//     buckets and a global concurrency ceiling that shed overload with
//     429 + Retry-After instead of convoying it, plus a Prometheus-format
//     /metrics endpoint (metrics.go) unifying the serving counters.
//
// The Door type puts the first in front of a server.Backend as a
// decorator; Handler composes the second as HTTP middleware. Everything is
// stdlib.
package front

import (
	"encoding/binary"
	"math"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Key is a canonical, collision-free identity for one search: two
// requests get the same Key if and only if the engine would be handed
// equivalent inputs (operator, k, metric, filter configuration, query
// instances with normalized weights). It is the full canonical byte
// string, not a hash — equal keys are compared bytewise by Go's map, so
// a hash collision can never alias two different queries onto one cached
// answer. Shard selection hashes the key separately.
type Key string

// canonicalKey serializes the search inputs into a Key. Weights are
// canonicalized through the object's normalized probabilities, so two
// requests whose weights differ only by a positive scale factor coincide
// (uncertain.New normalizes mass to 1 either way). Floats are encoded as
// raw IEEE bits: the cache deliberately distinguishes 0.3 from
// 0.30000000000000004 — byte-identical answers require bit-identical
// inputs.
func canonicalKey(q *uncertain.Object, op core.Operator, k int, m geom.Metric, f core.FilterConfig) Key {
	n, d := q.Len(), q.Dim()
	buf := make([]byte, 0, 16+len(m.Name())+8*n*(d+1))
	buf = append(buf, byte(op), filterByte(f))
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(k))
	buf = append(buf, tmp[:]...)
	buf = append(buf, byte(len(m.Name())))
	buf = append(buf, m.Name()...)
	buf = append(buf, byte(d))
	binary.LittleEndian.PutUint64(tmp[:], uint64(n))
	buf = append(buf, tmp[:]...)
	for i := 0; i < n; i++ {
		p := q.Instance(i)
		for j := 0; j < d; j++ {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(p[j]))
			buf = append(buf, tmp[:]...)
		}
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(q.Prob(i)))
		buf = append(buf, tmp[:]...)
	}
	return Key(buf)
}

// filterByte packs the pruning configuration into one key byte. Filters
// change which candidates are *proved* cheaply, never which are emitted,
// but they do change the reported statistics — and a cached body must be
// byte-identical to what a fresh search would produce.
func filterByte(f core.FilterConfig) byte {
	var b byte
	if f.StatPruning {
		b |= 2
	}
	if f.Geometric {
		b |= 4
	}
	return b
}

// head reads back the operator and k that canonicalKey wrote first.
func (k Key) head() (core.Operator, int) {
	var n uint64
	for i := 9; i >= 2; i-- {
		n = n<<8 | uint64(k[i])
	}
	return core.Operator(k[0]), int(n)
}

// shardOf hashes a Key, or an alias's body, onto one of n table shards:
// 64-bit FNV-1a over the bytes, written out so a lookup allocates nothing
// (the maps' own bytewise comparison makes collisions harmless here).
func shardOf[B ~string | ~[]byte](b B, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}
