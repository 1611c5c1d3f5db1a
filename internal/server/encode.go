package server

// The one writer of a QueryResponse: every /query answer, hit or miss, is
// appended here, without reflection, to exactly the bytes encoding/json
// writes for the same value. Only a label that needs escaping is handed to
// encoding/json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"spatialdom/internal/core"
)

// buffers recycles the byte buffers request bodies are read into and
// responses are appended in, so a warm /query allocates neither.
var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuffer is the largest buffer put back: an 8 MiB body is read
// once, not kept for every later request.
const maxPooledBuffer = 64 << 10

func getBuffer() *bytes.Buffer { return buffers.Get().(*bytes.Buffer) }

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		b.Reset()
		buffers.Put(b)
	}
}

// writeQuery answers one search result as a QueryResponse; partial, when
// set, adds a degraded result's skip counts. A result with a distance JSON
// cannot carry is answered 400 instead (overflow).
func writeQuery(w http.ResponseWriter, status int, op string, k int, res *core.Result, partial *core.PartialResultError) {
	if err := overflow(res); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := getBuffer()
	defer putBuffer(out)
	out.Write(appendQuery(out.AvailableBuffer(), op, k, res, partial))
	out.WriteByte('\n') // encoding/json's trailing newline
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out.Bytes())
}

// overflow names the first candidate whose MinDist is NaN or infinite,
// which neither encoding/json nor appendQuery can write. Finite coordinates
// about 1e154 or more apart get there: their squared distance overflows
// float64.
func overflow(res *core.Result) error {
	for _, c := range res.Candidates {
		if math.IsNaN(c.MinDist) || math.IsInf(c.MinDist, 0) {
			return fmt.Errorf("candidate %d: min_dist %v overflows float64: the query is too far from the data", c.Object.ID(), c.MinDist)
		}
	}
	return nil
}

// appendQuery appends the QueryResponse of one result — op and k as the
// request named them, the skip counts from partial when it is set — as
// encoding/json writes it, without the trailing newline. Every MinDist
// must be finite (overflow).
//
//nnc:hotpath
func appendQuery(dst []byte, op string, k int, res *core.Result, partial *core.PartialResultError) []byte {
	dst = append(dst, `{"operator":`...)
	dst = appendString(dst, op)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(k), 10)
	dst = append(dst, `,"candidates":`...)
	if len(res.Candidates) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, c := range res.Candidates {
			if i == 0 {
				dst = append(dst, '[')
			} else {
				dst = append(dst, ',')
			}
			dst = appendCandidate(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"examined":`...)
	dst = strconv.AppendInt(dst, int64(res.Examined), 10)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, res.Elapsed.Microseconds(), 10)
	dst = append(dst, `,"dominance_checks":`...)
	dst = strconv.AppendInt(dst, res.Stats.DominanceChecks, 10)
	if res.Incomplete {
		dst = append(dst, `,"incomplete":true`...)
	}
	if partial != nil {
		dst = appendOmitEmpty(dst, `,"unreadable_nodes":`, partial.UnreadableNodes)
		dst = appendOmitEmpty(dst, `,"unreadable_objects":`, partial.UnreadableObjects)
		dst = appendOmitEmpty(dst, `,"unreachable_shards":`, partial.UnreachableShards)
	}
	dst = append(dst, '}')
	return dst
}

// appendCandidate appends one candidate as a QueryCandidate.
func appendCandidate(dst []byte, c core.Candidate) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(c.Object.ID()), 10)
	if label := c.Object.Label(); label != "" {
		dst = append(dst, `,"label":`...)
		dst = appendString(dst, label)
	}
	dst = append(dst, `,"min_dist":`...)
	dst = appendFloat(dst, c.MinDist)
	dst = append(dst, `,"dominators":`...)
	dst = strconv.AppendInt(dst, int64(c.Dominators), 10)
	dst = append(dst, '}')
	return dst
}

// appendOmitEmpty appends an omitempty int field: nothing when it is 0.
func appendOmitEmpty(dst []byte, field string, v int) []byte {
	if v != 0 {
		dst = append(dst, field...)
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the three HTML characters encoding/json escapes
// is written as it is; anything else goes to encoding/json.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendEscaped(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	dst = append(dst, '"')
	return dst
}

// appendEscaped appends s as encoding/json escapes it.
//
//nnc:coldpath labels needing escapes are rare; encoding/json allocates once per such label
func appendEscaped(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent not zero-padded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
