package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestStreamDeliversAllCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	objs := randDataset(rng, 60, 2, 5, 80)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 80), 4)

	want := idx.Search(q, SSSD).IDs()

	out, done := StreamBackend(context.Background(), idx, q, SSSD, SearchOptions{Filters: AllFilters})
	var got []int
	for c := range out {
		got = append(got, c.Object.ID())
	}
	res := <-done
	if res == nil {
		t.Fatal("no final result")
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream order differs at %d: %v vs %v", i, got, want)
		}
	}
	if len(res.Candidates) != len(want) {
		t.Fatal("final result incomplete")
	}
}

func TestStreamCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	objs := randDataset(rng, 200, 2, 6, 80)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	// A huge query extent makes for many candidates under F+SD.
	q := randObject(rng, 0, 2, 4, randCenter(rng, 2, 80), 30)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, done := StreamBackend(ctx, idx, q, FPlusSD, SearchOptions{Filters: AllFilters})
	received := 0
	for range out {
		received++
		if received == 1 {
			cancel()
		}
	}
	select {
	case res, ok := <-done:
		if ok && res != nil && received >= len(res.Candidates) && received > 1 {
			t.Fatalf("cancel did not stop the stream (%d received)", received)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after cancel")
	}
	if received == 0 {
		t.Fatal("no candidate received before cancel")
	}
}
