package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// referenceResponse is a result as a QueryResponse value, for
// encoding/json to encode: what the appender must reproduce byte for byte.
func referenceResponse(op string, k int, res *core.Result, partial *core.PartialResultError) QueryResponse {
	resp := QueryResponse{
		Operator:   op,
		K:          k,
		Examined:   res.Examined,
		ElapsedUS:  res.Elapsed.Microseconds(),
		Checks:     res.Stats.DominanceChecks,
		Incomplete: res.Incomplete,
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, QueryCandidate{
			ID: c.Object.ID(), Label: c.Object.Label(), MinDist: c.MinDist, Dominators: c.Dominators,
		})
	}
	if partial != nil {
		resp.UnreadableNodes = partial.UnreadableNodes
		resp.UnreadableObjects = partial.UnreadableObjects
		resp.UnreachableShards = partial.UnreachableShards
	}
	return resp
}

func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestQueryResponseBytesMatchEncodingJSON: the appender writes exactly what
// encoding/json writes for the same QueryResponse and BatchResponse — over
// real answers of every operator and k, labels that need escaping, floats
// on both sides of the exponent-form thresholds, an empty answer, and
// degraded answers with every skip count set.
func TestQueryResponseBytesMatchEncodingJSON(t *testing.T) {
	type tcase struct {
		name    string
		op      string
		k       int
		res     *core.Result
		partial *core.PartialResultError
	}
	var cases []tcase

	ds := datagen.Generate(datagen.Params{N: 120, M: 5, Seed: 161})
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries(2, 4, 200, 162) {
		for _, op := range core.Operators {
			for k := 1; k <= 5; k++ {
				res, err := idx.SearchKCtx(context.Background(), q, op, k, core.SearchOptions{Filters: core.AllFilters})
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, tcase{"datagen " + op.String(), op.String(), k, res, nil})
			}
		}
	}

	obj := func(id int, label string) *uncertain.Object {
		return uncertain.MustNew(id, []geom.Point{{1, 2}}, nil).SetLabel(label)
	}
	one := func(label string, minDist float64) *core.Result {
		return &core.Result{
			Operator:   core.SSD,
			Candidates: []core.Candidate{{Object: obj(7, label), MinDist: minDist, Dominators: 1}},
			Examined:   3,
			Elapsed:    1234567 * time.Nanosecond,
			Stats:      core.Stats{DominanceChecks: 99},
		}
	}
	for _, label := range []string{
		"plain", "a<b", "a>b", "a&b", "<b>&amp;</b>", `say "hi"`, `back\slash`, "tab\there", "nul\x00", "del\x7f",
		"naïve café — 東京", "bad \xff\xfe utf8", "line\u2028sep\u2029", "",
	} {
		cases = append(cases, tcase{"label " + label, "SSD", 1, one(label, 1.5), nil})
	}
	for _, d := range []float64{
		0, math.Copysign(0, -1), 1, 0.1, 1e-6, 9.99e-7, 1e-7, 5e-324, 1.5e-300, 123456.789,
		1e20, 999999999999999999999, 1e21, 1.2345e25, 1e300, math.MaxFloat64, -2.5e-9,
	} {
		cases = append(cases, tcase{"min_dist", "PSD", 2, one("x", d), nil})
	}
	cases = append(cases,
		tcase{"no candidates", "FSD", 3, &core.Result{Operator: core.FSD, Examined: 4}, nil},
		tcase{"incomplete", "F+SD", 2,
			&core.Result{Operator: core.FPlusSD, Incomplete: true, Candidates: one("", 2).Candidates},
			&core.PartialResultError{UnreadableNodes: 3, UnreadableObjects: 4, UnreachableShards: 5}},
		tcase{"incomplete, no counts", "SSSD", 1, &core.Result{Operator: core.SSSD, Incomplete: true}, &core.PartialResultError{}},
	)

	for _, tc := range cases {
		want := encodingJSON(t, referenceResponse(tc.op, tc.k, tc.res, tc.partial))
		got := append(appendQuery(nil, tc.op, tc.k, tc.res, tc.partial), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("%s k=%d:\nappender      %s\nencoding/json %s", tc.name, tc.k, got, want)
		}
		rec := httptest.NewRecorder()
		writeQuery(rec, 200, tc.op, tc.k, tc.res, tc.partial)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s k=%d: writeQuery sent %s, want %s", tc.name, tc.k, rec.Body.Bytes(), want)
		}
	}

	// A float encoding/json refuses is answered 400 naming it.
	rec := httptest.NewRecorder()
	writeQuery(rec, 200, "PSD", 1, one("", math.Inf(1)), nil)
	if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("overflows")) {
		t.Fatalf("an infinite min_dist was answered %d %s", rec.Code, rec.Body.Bytes())
	}
}
