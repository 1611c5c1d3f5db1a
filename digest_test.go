package spatialdom

import (
	"context"
	"path/filepath"
	"testing"

	"spatialdom/internal/datagen"
)

// Emission-order digests of three small fixed searches, one per engine shape
// the repo benchmark measures: S-SD k=1 on a page file read through a small
// pool (disk_cold), P-SD k=4 on the anti-correlated memory
// index (a served_mixed miss), and P-SD k=1 on overlapping NBA-like clouds
// (mem_overlap). Each digest folds every answer's candidate IDs in the order
// the engine emitted them, then the answer's length, so a change meant to
// move no verdict and no emission order — a kernel, the heap, a sort — that
// does move one fails here, not only in a full benchmark run. A change that
// moves them on purpose re-captures the constants and says why.
func TestEmissionOrderDigests(t *testing.T) {
	cases := []struct {
		name   string
		want   uint64
		digest func(t *testing.T) uint64
	}{
		{"disk-SSD-k1", 0x3de6cb3d010c4579, diskSSDDigest},
		{"mem-PSD-k4-anticorrelated", 0x63bd65152ab13b32, func(t *testing.T) uint64 {
			return memDigest(t, datagen.Params{N: 400, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: 43}, PSD, 4)
		}},
		{"mem-PSD-k1-nba", 0x2495ee0beffee8c0, func(t *testing.T) uint64 {
			return memDigest(t, datagen.Params{N: 200, M: 10, Centers: datagen.NBALike, Seed: 44}, PSD, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.digest(t); got != tc.want {
				t.Errorf("digest %#016x, want %#016x: candidates or their emission order moved", got, tc.want)
			}
		})
	}
}

// diskSSDDigest runs S-SD k=1, for sixteen 8-instance queries, over a page
// file of 2 000 anti-correlated objects reopened with a 64-frame pool.
func diskSSDDigest(t *testing.T) uint64 {
	ds := datagen.Generate(datagen.Params{N: 2000, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: 42})
	path := filepath.Join(t.TempDir(), "digest.pg")
	built, err := BuildDiskIndex(path, ds.Objects, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDiskIndex(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	h := uint64(digestOffset)
	for _, q := range ds.Queries(16, 8, 200, 45) {
		res, err := disk.SearchKCtx(context.Background(), q, SSD, 1, SearchOptions{Filters: AllFilters})
		if err != nil {
			t.Fatal(err)
		}
		h = digestAnswer(h, res.IDs())
	}
	return h
}

// memDigest runs op at k over an in-memory index of p's objects, for six
// 8-instance queries.
func memDigest(t *testing.T, p datagen.Params, op Operator, k int) uint64 {
	ds := datagen.Generate(p)
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(digestOffset)
	for _, q := range ds.Queries(6, 8, 200, p.Seed+1) {
		h = digestAnswer(h, searchK(idx, q, op, k, SearchOptions{Filters: AllFilters}).IDs())
	}
	return h
}

// FNV-1a folded a byte at a time, as the repo benchmark folds its digests.
const digestOffset, digestPrime = 14695981039346656037, 1099511628211

func digestMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= digestPrime
		v >>= 8
	}
	return h
}

// digestAnswer folds one answer's candidate IDs, in emission order, and its
// length into h.
func digestAnswer(h uint64, ids []int) uint64 {
	for _, id := range ids {
		h = digestMix(h, uint64(id))
	}
	return digestMix(h, uint64(len(ids))|1<<63)
}
