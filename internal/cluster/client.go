package cluster

// One replica of one shard: a thin HTTP client over the shard server's
// /shard/query and /healthz endpoints. Every request forwards the
// caller's context (deadlines and hedging cancellation both ride on it —
// nnclint's ctx-flow check enforces this for the whole package), and
// failures are classified into the faults taxonomy: anything that can
// heal (network error, timeout, 5xx, shed) matches faults.ErrUnavailable
// and feeds the retry/failover/breaker machinery; a 4xx is sticky — a
// protocol bug retrying cannot fix — and aborts the query.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"spatialdom/internal/faults"
	"spatialdom/internal/server"
)

// replica is one backend process serving a shard's data.
type replica struct {
	url string // base URL, no trailing slash
	hc  *http.Client
	br  *breaker
}

func newReplica(url string, hc *http.Client, cooldown time.Duration) *replica {
	return &replica{url: strings.TrimRight(url, "/"), hc: hc, br: &breaker{cooldown: cooldown}}
}

// stickyError marks a failure retrying cannot fix (4xx from the shard);
// it deliberately does NOT match faults.ErrUnavailable.
type stickyError struct{ err error }

func (e *stickyError) Error() string { return e.err.Error() }
func (e *stickyError) Unwrap() error { return e.err }

// isSticky reports whether the failure is terminal for the whole query.
func isSticky(err error) bool {
	var se *stickyError
	return errors.As(err, &se)
}

// ShardQuery posts the query to this replica and decodes the shard's
// k-skyband. A 206 decodes like a 200 with the degradation fields set —
// the shard answered, just not from all of its storage.
func (r *replica) ShardQuery(ctx context.Context, body []byte) (*server.ShardQueryResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/shard/query", bytes.NewReader(body))
	if err != nil {
		return nil, &stickyError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w: %w", r.url, faults.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent:
		var out server.ShardQueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			// A half-written body is a transport fault, not a protocol bug.
			return nil, fmt.Errorf("shard %s: %w: decoding response: %w", r.url, faults.ErrUnavailable, err)
		}
		return &out, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, &stickyError{fmt.Errorf("shard %s: HTTP %d", r.url, resp.StatusCode)}
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("shard %s: %w: HTTP %d", r.url, faults.ErrUnavailable, resp.StatusCode)
	}
}

// ProbeHealth is the half-open breaker probe: GET /healthz, any 200 means
// the replica is serving again.
func (r *replica) ProbeHealth(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return fmt.Errorf("probe %s: %w: %w", r.url, faults.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe %s: %w: HTTP %d", r.url, faults.ErrUnavailable, resp.StatusCode)
	}
	return nil
}

// Discover reads the replica's /healthz body for the shard's object count
// and dimensionality (the router's Len/Dim come from summing these).
func (r *replica) Discover(ctx context.Context) (objects, dim int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/healthz", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("discover %s: %w: %w", r.url, faults.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, 0, fmt.Errorf("discover %s: %w: HTTP %d", r.url, faults.ErrUnavailable, resp.StatusCode)
	}
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, fmt.Errorf("discover %s: decoding healthz: %w", r.url, err)
	}
	if h.Objects == nil || *h.Objects == 0 || h.Dim == nil || *h.Dim == 0 {
		return 0, 0, fmt.Errorf("discover %s: healthz reports no dataset (still warming?)", r.url)
	}
	return *h.Objects, *h.Dim, nil
}
