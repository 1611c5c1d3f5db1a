package diskindex

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/uncertain"
)

// Snapshot-isolation stress (run under -race): reader goroutines search
// while a writer commits inserts and deletes, and every commit hands its
// staged buffers to the pool as frames (the package's tests poison every
// buffer the writer gets back).
// Every search result must equal the in-memory outcome of exactly one
// epoch the search could have pinned — bounded by the index epoch
// sampled before and after the search. A result mixing two epochs, or
// matching none, fails.

type snapJob struct {
	qi int
	op core.Operator
	k  int
}

func snapKey(ids []int) string { return fmt.Sprint(ids) }

func TestSnapshotIsolationUnderWrites(t *testing.T) {
	const (
		seedObjs = 50
		steps    = 60
		readers  = 4
	)
	ds := datagen.Generate(datagen.Params{N: seedObjs + steps, M: 5, EdgeLen: 400, Seed: 81})
	queries := ds.Queries(2, 4, 200, 82)
	jobs := []snapJob{
		{0, core.SSSD, 1}, {0, core.PSD, 2},
		{1, core.SSSD, 2}, {1, core.PSD, 1},
	}

	// Replay the schedule on the in-memory index to precompute, for every
	// epoch the writer will publish, the expected result of every job.
	mirror, err := core.NewIndex(ds.Objects[:seedObjs])
	if err != nil {
		t.Fatal(err)
	}
	type opStep struct {
		insert *uncertain.Object
		delete int
	}
	rng := rand.New(rand.NewSource(83))
	live := make([]int, 0, seedObjs+steps)
	for _, o := range ds.Objects[:seedObjs] {
		live = append(live, o.ID())
	}
	schedule := make([]opStep, 0, steps)
	next := seedObjs
	for i := 0; i < steps; i++ {
		if i%3 == 2 && len(live) > 10 {
			vi := rng.Intn(len(live))
			id := live[vi]
			live = append(live[:vi], live[vi+1:]...)
			schedule = append(schedule, opStep{delete: id})
		} else {
			o := ds.Objects[next]
			next++
			live = append(live, o.ID())
			schedule = append(schedule, opStep{insert: o})
		}
	}
	snapshotExpect := func() map[snapJob]string {
		m := make(map[snapJob]string, len(jobs))
		for _, j := range jobs {
			m[j] = snapKey(sortedIDs(memK(mirror, queries[j.qi], j.op, j.k)))
		}
		return m
	}
	// expected[i] is the outcome after i schedule steps.
	expected := make([]map[snapJob]string, steps+1)
	expected[0] = snapshotExpect()
	for i, st := range schedule {
		if st.insert != nil {
			if err := mirror.Insert(st.insert); err != nil {
				t.Fatal(err)
			}
		} else if !mirror.Delete(st.delete) {
			t.Fatalf("schedule step %d: mirror delete %d absent", i, st.delete)
		}
		expected[i+1] = snapshotExpect()
	}

	path := filepath.Join(t.TempDir(), "snap.pg")
	disk, err := CreateFileMutable(path, 3, &MutableOptions{Frames: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, o := range ds.Objects[:seedObjs] {
		if err := disk.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	baseEpoch := disk.Epoch() // schedule step i commits at epoch baseEpoch+i+1

	// expectFor maps an epoch window to the acceptable result keys.
	stepOf := func(epoch uint64) int {
		if epoch <= baseEpoch {
			return 0
		}
		s := int(epoch - baseEpoch)
		if s > steps {
			s = steps
		}
		return s
	}

	done := make(chan struct{})
	// started holds the writer's last step until every reader has finished
	// its first check, so each reader overlaps the writer however fast the
	// commits are.
	var started sync.WaitGroup
	started.Add(readers)
	var writerErr error
	go func() {
		defer close(done)
		for i, st := range schedule {
			if i == len(schedule)-1 {
				started.Wait()
			}
			if st.insert != nil {
				if err := disk.Insert(st.insert); err != nil {
					writerErr = fmt.Errorf("step %d insert: %w", i, err)
					return
				}
			} else if ok, err := disk.Delete(st.delete); err != nil || !ok {
				writerErr = fmt.Errorf("step %d delete %d: ok=%v err=%v", i, st.delete, ok, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checks := 0
			defer func() {
				if checks == 0 {
					started.Done()
				}
			}()
			for round := 0; ; round++ {
				select {
				case <-done:
					if checks == 0 {
						errs <- fmt.Sprintf("reader %d: no checks ran", g)
					}
					return
				default:
				}
				for _, j := range jobs {
					e1 := disk.Epoch()
					res, err := disk.SearchKCtx(context.Background(), queries[j.qi], j.op, j.k,
						core.SearchOptions{Filters: core.AllFilters})
					e2 := disk.Epoch()
					if err != nil {
						errs <- fmt.Sprintf("reader %d %v/k=%d: %v", g, j.op, j.k, err)
						return
					}
					got := snapKey(sortedIDs(res))
					lo, hi := stepOf(e1), stepOf(e2)
					matched := false
					for s := lo; s <= hi; s++ {
						if got == expected[s][j] {
							matched = true
							break
						}
					}
					if !matched {
						errs <- fmt.Sprintf("reader %d %v/k=%d q%d: result %s matches no epoch in [%d,%d] (steps %d..%d)",
							g, j.op, j.k, j.qi, got, e1, e2, lo, hi)
						return
					}
					if checks++; checks == 1 {
						started.Done()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: the final state must match the mirror exactly, page
	// reclamation must have converged (no reader pins anything), and the
	// file must still be healthy.
	compareAll(t, "final", disk, mirror, queries)
	if disk.Len() != mirror.Len() {
		t.Fatalf("final len %d != mirror %d", disk.Len(), mirror.Len())
	}
	// Reclamation runs at commit; with all readers drained, one more
	// commit must pop every retired snapshot and free every parked page.
	victim := -1
	for id := range disk.mut.byID {
		if victim == -1 || id < victim {
			victim = id
		}
	}
	if ok, err := disk.Delete(victim); err != nil || !ok {
		t.Fatalf("drain commit delete %d: ok=%v err=%v", victim, ok, err)
	}
	if !mirror.Delete(victim) {
		t.Fatal("mirror drain delete absent")
	}
	disk.writeMu.Lock()
	retired, pending := len(disk.mut.retired), len(disk.mut.pending)
	disk.writeMu.Unlock()
	if retired != 0 || pending != 0 {
		t.Fatalf("reclamation did not converge: %d retired snapshots, %d pending frees", retired, pending)
	}
	if err := disk.Healthy(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Copy-on-write installs only pages no live snapshot reaches, so no
	// search held one pinned: every commit took its staged buffers as the
	// frames, and none fell back to a copy.
	if n := disk.pool.FrameCopies(); n != 0 {
		t.Fatalf("%d installs found their page pinned by a search", n)
	}
}
