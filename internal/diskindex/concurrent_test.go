package diskindex

// Concurrency stress suite (run it under -race): the conformance query
// set executed from many goroutines must return, per query, exactly the
// serial outcome on both backends — candidates, emission order, and (on
// disk) the logical page-access count.
// The hit/miss split within Accesses is interleaving-dependent (another
// goroutine may have faulted a page in first), so the assertion is on
// Hits+Misses, which the traversal alone determines.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"spatialdom/internal/core"
)

func TestConcurrentSearchesMatchSerial(t *testing.T) {
	const goroutines = 8
	disk, mem, ds, _ := buildBoth(t, 140, 6, 71, 64)
	queries := ds.Queries(3, 4, 200, 72)

	type job struct {
		q  int
		op core.Operator
		k  int
	}
	type expectation struct {
		emissions []string
		accesses  int64 // disk only; Hits+Misses
	}
	var jobs []job
	serialMem := map[job]expectation{}
	serialDisk := map[job]expectation{}
	for qi := range queries {
		for _, op := range core.Operators {
			for _, k := range []int{1, 3} {
				j := job{qi, op, k}
				jobs = append(jobs, j)
				opts := core.SearchOptions{Filters: core.AllFilters}
				mres, err := mem.SearchKCtx(context.Background(), queries[qi], op, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				serialMem[j] = expectation{emissions: emissions(mres)}
				dres, err := disk.SearchKCtx(context.Background(), queries[qi], op, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				serialDisk[j] = expectation{emissions: emissions(dres), accesses: dres.IO.Accesses()}
			}
		}
	}

	for _, backend := range []struct {
		name string
		s    core.KSearcher
		want map[job]expectation
		io   bool
	}{
		{"mem", mem, serialMem, false},
		{"disk", disk, serialDisk, true},
	} {
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range jobs {
					res, err := backend.s.SearchKCtx(context.Background(), queries[j.q], j.op, j.k,
						core.SearchOptions{Filters: core.AllFilters})
					if err != nil {
						errs <- fmt.Sprintf("%s %v/k=%d q%d: %v", backend.name, j.op, j.k, j.q, err)
						return
					}
					want := backend.want[j]
					got := emissions(res)
					if len(got) != len(want.emissions) {
						errs <- fmt.Sprintf("%s %v/k=%d q%d: %d emissions, serial %d",
							backend.name, j.op, j.k, j.q, len(got), len(want.emissions))
						return
					}
					for i := range got {
						if got[i] != want.emissions[i] {
							errs <- fmt.Sprintf("%s %v/k=%d q%d: emission %d = %q, serial %q",
								backend.name, j.op, j.k, j.q, i, got[i], want.emissions[i])
							return
						}
					}
					if backend.io {
						if acc := res.IO.Accesses(); acc != want.accesses {
							errs <- fmt.Sprintf("%s %v/k=%d q%d: %d page accesses, serial %d",
								backend.name, j.op, j.k, j.q, acc, want.accesses)
							return
						}
						if res.IO.Hits+res.IO.Misses != res.IO.Accesses() {
							errs <- fmt.Sprintf("%s %v/k=%d q%d: inconsistent IO stats %+v",
								backend.name, j.op, j.k, j.q, res.IO)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
