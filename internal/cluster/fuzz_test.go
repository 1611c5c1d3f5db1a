package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/faults"
	"spatialdom/internal/geom"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// replyTransport answers every request with one canned body — a shard
// whose bytes the fuzzer chooses.
type replyTransport struct{ body []byte }

func (rt replyTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(rt.body)), Header: http.Header{}}, nil
}

// FuzzShardReply feeds arbitrary bytes to the router as a /shard/query
// response body — bytes another process wrote — through the path a real
// reply takes: replica.ShardQuery's decode, decodeBand's object rebuild, the
// merge. Never a panic; a body that does not decode is a transport fault
// (retried, failed over), one that decodes to an impossible object is
// sticky, and whatever reaches the merge is a well-formed object of the
// query's dimensionality.
func FuzzShardReply(f *testing.F) {
	q := uncertain.MustNew(-1, []geom.Point{{1, 2, 3}, {2, 3, 4}}, nil)
	good, err := json.Marshal(server.ShardQueryResponse{
		Candidates: []server.ObjectJSON{
			{ID: 4, Label: "a", Instances: [][]float64{{1, 1, 1}, {2, 2, 2}}, Probs: []float64{0.25, 0.75}},
			{ID: 9, Instances: [][]float64{{5, 5, 5}}, Probs: []float64{1}},
		},
		Objects: 40, Examined: 7, Checks: 31,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])                                                                // a half-written body
	f.Add([]byte(`{"candidates":[{"id":1,"instances":[[1,2]],"probs":[1]}]}`))               // another dimensionality
	f.Add([]byte(`{"candidates":[{"id":1,"instances":[[1,2,3],[4,5]],"probs":[0.5,0.5]}]}`)) // ragged
	f.Add([]byte(`{"candidates":[{"id":1,"instances":[[1,2,3]],"probs":[-1]}]}`))
	f.Add([]byte(`{"candidates":[{"id":1,"instances":[],"probs":[]}],"incomplete":true,"unreadable_nodes":-5}`))
	f.Add([]byte(`{"candidates":[{"id":1,"instances":[[1e999,0,0]],"probs":[1]}]}`))
	f.Add([]byte(`{"candidates":null,"objects":-1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		r := newReplica("http://shard.invalid", &http.Client{Transport: replyTransport{body}}, time.Second)
		resp, err := r.ShardQuery(context.Background(), nil)
		if err != nil {
			if !faults.IsUnavailable(err) || isSticky(err) {
				t.Fatalf("undecodable body classified as %v; want a transport fault", err)
			}
			return
		}
		objs, err := decodeBand(resp.Candidates, q.Dim())
		if err != nil {
			if !isSticky(err) {
				t.Fatalf("impossible candidate classified as %v; want sticky", err)
			}
			return
		}
		for _, o := range objs {
			if o.Len() < 1 || o.Dim() != q.Dim() {
				t.Fatalf("decoded object %d has %d instances of dim %d", o.ID(), o.Len(), o.Dim())
			}
		}
		if _, err := core.MergeShardBands(context.Background(), q, core.PSD, 2, core.SearchOptions{Filters: core.AllFilters}, [][]*uncertain.Object{objs}); err != nil {
			t.Fatalf("merge over decoded candidates: %v", err)
		}
	})
}
