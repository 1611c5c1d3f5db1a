package server

// The request pipeline every body-carrying endpoint shares: one read, one
// decode, one query construction, one search-outcome → status mapping and
// one result writer (encode.go). What genuinely differs per endpoint
// (k ≤ Len, the repeat lookup) stays in the endpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

const (
	// maxBodyBytes bounds every request body. 8 MiB covers a query or an
	// insert of maxInstances wide instances with room to spare; anything
	// larger is answered 413 after reading at most this many bytes.
	maxBodyBytes = 8 << 20
	// maxInstances bounds the instances of one query object — an order of
	// magnitude above the paper's largest setting, and small enough that
	// the per-search distance tables it sizes stay bounded.
	maxInstances = 4096
)

// errTrailingData refuses a body with more than whitespace after its JSON
// value: json.Decoder would stop at the value and drop the rest unread.
var errTrailingData = errors.New("trailing data after the JSON value")

// readBody is the one way a request body enters the server: POST only, at
// most maxBodyBytes, read whole into buf. On failure it writes the error
// response (405 or 413) itself and returns false.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return false
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("reading request: %w", err))
		return false
	}
	return true
}

// decodeJSON decodes one JSON value from body into v: unknown fields and
// anything but whitespace after the value are rejected. On failure it
// writes the 400 itself and returns false.
func decodeJSON(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		err = errTrailingData
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// decodeBody is readBody then decodeJSON, for the endpoints that need the
// body only decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuffer()
	defer putBuffer(buf)
	return readBody(w, r, buf) && decodeJSON(w, buf.Bytes(), v)
}

// query is a validated search request: what buildQuery makes of the wire
// fields both query endpoints share.
type query struct {
	op     core.Operator
	metric geom.Metric
	k      int
	obj    *uncertain.Object
}

// buildQuery validates the shared wire fields: operator and metric names,
// k (0 means 1, negative rejected), and the query object as a request
// object (requestObject; FromNormalized when its weights are already
// probabilities, the shard protocol). Every failure is a 400.
func buildQuery(dim int, operator, metric string, k int, normalized bool, raw ObjectJSON) (query, error) {
	op := core.PSD // what a request gets by not naming an operator
	if strings.TrimSpace(operator) != "" {
		var err error
		if op, err = core.ParseOperator(operator); err != nil {
			return query{}, err
		}
	}
	m, err := parseMetric(metric)
	if err != nil {
		return query{}, err
	}
	if k == 0 {
		k = 1
	}
	if k < 1 {
		return query{}, fmt.Errorf("k=%d out of range", k)
	}
	q, err := requestObject(raw, dim, normalized)
	if err != nil {
		return query{}, fmt.Errorf("query object: %w", err)
	}
	return query{op: op, metric: m, k: k, obj: q}, nil
}

// Object is the one way a wire object becomes an *uncertain.Object: the
// rows become its instances, and Probs its weights (uncertain.New) or,
// when normalized, its probabilities bit for bit (uncertain.FromNormalized);
// it must have the dataset's dimensionality dim. A shard reply is decoded
// this way as it stands; a request goes through requestObject's bound.
func (j ObjectJSON) Object(dim int, normalized bool) (*uncertain.Object, error) {
	pts := make([]geom.Point, len(j.Instances))
	for i, row := range j.Instances {
		pts[i] = geom.Point(row)
	}
	build := uncertain.New
	if normalized {
		build = uncertain.FromNormalized
	}
	o, err := build(j.ID, pts, j.Probs)
	if err != nil {
		return nil, err
	}
	if o.Dim() != dim {
		return nil, fmt.Errorf("%w: dim %d != dataset dim %d", uncertain.ErrDimMismatch, o.Dim(), dim)
	}
	if j.Label != "" {
		o.SetLabel(j.Label)
	}
	return o, nil
}

// ToJSON is Object's inverse and the only way an object goes back out:
// /objects/{id}, a shard's candidates, the router's query.
func ToJSON(o *uncertain.Object) ObjectJSON {
	inst := make([][]float64, o.Len())
	for i := range inst {
		inst[i] = append([]float64(nil), o.Instance(i)...)
	}
	return ObjectJSON{ID: o.ID(), Label: o.Label(), Instances: inst, Probs: append([]float64(nil), o.Probs()...)}
}

// requestObject is ObjectJSON.Object under the bound every request obeys,
// query or insert: at most maxInstances instances.
func requestObject(j ObjectJSON, dim int, normalized bool) (*uncertain.Object, error) {
	if len(j.Instances) > maxInstances {
		return nil, fmt.Errorf("%d instances exceed limit %d", len(j.Instances), maxInstances)
	}
	return j.Object(dim, normalized)
}

// searchStatus maps a search outcome to its HTTP face. A clean result is
// 200. A degraded one — the traversal completed around quarantined pages
// or, behind a router, dead shards — is 206, so clients never mistake a
// shrunken candidate set for a complete answer; when the producer knows
// when the missing capacity comes back (a shard breaker's half-open probe
// time) the advice rides on Retry-After. A hard error is answered 500
// here, unless the client is already gone (the engine aborted the
// traversal and there is nobody to tell); both return ok=false.
func searchStatus(w http.ResponseWriter, r *http.Request, err error) (status int, partial *core.PartialResultError, ok bool) {
	if err == nil {
		return http.StatusOK, nil, true
	}
	partial, isPartial := core.AsPartial(err)
	if !isPartial {
		if r.Context().Err() == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusInternalServerError, err)
		}
		return 0, nil, false
	}
	if partial.RetryAfterHint > 0 {
		SetRetryAfter(w, partial.RetryAfterHint)
	}
	return http.StatusPartialContent, partial, true
}

// SetRetryAfter advises the client to come back after d, rounded up to
// whole seconds (at least 1): the 206 of a degraded answer and the front
// door's 429 both say it this way.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d / time.Second)
	if d%time.Second != 0 || secs < 1 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}
