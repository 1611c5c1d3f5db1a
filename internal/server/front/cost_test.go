package front

import (
	"context"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/uncertain"
)

// TestCacheEntryCostMatchesHeap fills a door with served_mixed-shaped
// answers — P-SD k = 4 over 3 500 anti-correlated 3-D objects of 10
// instances, |Q| = 8, each with its /query body as alias — and holds what
// the table charges its budget for 600 fills to what the heap grew by over
// them: within 10 %. Each query is built afresh and dropped, so whatever an
// entry pins of its query counts against it; the first 100 fills warm the
// engine's pools and the tables' maps.
func TestCacheEntryCostMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 700 entries over 3 500 objects")
	}
	if raceBuild() {
		t.Skip("the race runtime allocates for itself")
	}
	ds := datagen.Generate(datagen.Params{N: 3500, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: 1})
	store, err := NewMemStore(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDoor(store, DoorConfig{})
	type request struct {
		coords, probs []float64
		body          []byte
	}
	var reqs []request
	for _, q := range ds.Queries(700, 8, 200, 102) {
		var r request
		rows := make([][]float64, q.Len())
		for j := range rows {
			rows[j] = q.Instance(j)
			r.coords = append(r.coords, q.Instance(j)...)
			r.probs = append(r.probs, q.Prob(j))
		}
		r.body, _ = json.Marshal(map[string]any{"instances": rows, "operator": "PSD", "k": 4})
		reqs = append(reqs, r)
	}
	fill := func(reqs []request) {
		for _, r := range reqs {
			q, err := uncertain.FromSlabs(0, 3, slices.Clone(r.coords), slices.Clone(r.probs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.SearchBody(context.Background(), r.body, q, core.PSD, 4, core.SearchOptions{Filters: core.AllFilters}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		runtime.GC() // twice: the engine's scratch pools keep a victim cache
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	fill(reqs[:100])
	charged, held := d.Stats().Cache.Bytes, heap()
	fill(reqs[100:])
	held = heap() - held
	runtime.KeepAlive(reqs) // the bodies are the caller's, not the table's
	st := d.Stats().Cache
	if st.Entries != int64(len(reqs)) {
		t.Fatalf("%d entries kept of %d fills", st.Entries, len(reqs))
	}
	charged = st.Bytes - charged
	n := int64(len(reqs) - 100)
	t.Logf("%d fills: charged %d bytes an entry, the heap grew by %d", n, charged/n, held/n)
	if r := float64(charged) / float64(held); r < 0.9 || r > 1.1 {
		t.Fatalf("the table charges %.2f× what its entries hold", r)
	}
}

// raceBuild reports whether the test binary runs under the race detector.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
