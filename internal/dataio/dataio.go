// Package dataio reads and writes multi-instance objects as CSV, so the
// tools can operate on real datasets (e.g. the paper's NBA game logs or
// GoWalla check-ins exported to the same shape).
//
// The format is one instance per row:
//
//	object_id,instance_idx,weight,x1,...,xd
//
// instance_idx is informational (rows of an object may appear in any
// order); weight is the instance weight before normalization (use 1 for
// uniform objects). All instances of an object must share the
// dimensionality, and all objects in a file must too.
package dataio

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// ErrEmpty is returned when the input contains no instance rows.
var ErrEmpty = errors.New("dataio: no instance rows")

// Read parses objects from CSV. Rows of one object may be interleaved
// with rows of others; objects are returned ordered by ID.
func Read(r io.Reader) ([]*uncertain.Object, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for a better message
	type acc struct {
		pts []geom.Point
		ws  []float64
	}
	objs := map[int]*acc{}
	dim := -1
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: %w", err)
		}
		line++
		if len(rec) < 4 {
			return nil, fmt.Errorf("dataio: row %d has %d fields, need at least 4 (id,idx,weight,coords...)", line, len(rec))
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			if line == 1 {
				continue // tolerate a header row
			}
			return nil, fmt.Errorf("dataio: row %d: bad object id %q", line, rec[0])
		}
		w, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: row %d: bad weight %q", line, rec[2])
		}
		d := len(rec) - 3
		if dim == -1 {
			dim = d
		} else if d != dim {
			return nil, fmt.Errorf("dataio: row %d has %d coordinates, want %d", line, d, dim)
		}
		pt := make(geom.Point, d)
		for i := 0; i < d; i++ {
			v, err := strconv.ParseFloat(rec[3+i], 64)
			if err != nil {
				return nil, fmt.Errorf("dataio: row %d: bad coordinate %q", line, rec[3+i])
			}
			pt[i] = v
		}
		a := objs[id]
		if a == nil {
			a = &acc{}
			objs[id] = a
		}
		a.pts = append(a.pts, pt)
		a.ws = append(a.ws, w)
	}
	if len(objs) == 0 {
		return nil, ErrEmpty
	}
	ids := make([]int, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*uncertain.Object, 0, len(ids))
	for _, id := range ids {
		a := objs[id]
		o, err := uncertain.New(id, a.pts, uniformAsNil(a.ws))
		if err != nil {
			return nil, fmt.Errorf("dataio: object %d: %w", id, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// uniformAsNil returns nil for equal positive weights, so a uniform object
// gets probability 1/m exactly — what the generator gave it — and not
// w/Σw, which is an ulp off whenever Σw rounds: a written dataset reads
// back bit for bit.
func uniformAsNil(ws []float64) []float64 {
	for _, w := range ws {
		if w != ws[0] || !(w > 0) || w > math.MaxFloat64 {
			return ws
		}
	}
	return nil
}

// ReadFile reads objects from a CSV file.
func ReadFile(path string) ([]*uncertain.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

// Write emits objects as CSV in the package format. Probabilities are
// written as weights (they round-trip up to normalization).
func Write(w io.Writer, objs []*uncertain.Object) error {
	bw := bufio.NewWriter(w)
	for _, o := range objs {
		for i := 0; i < o.Len(); i++ {
			fmt.Fprintf(bw, "%d,%d,%s", o.ID(), i, strconv.FormatFloat(o.Prob(i), 'g', -1, 64))
			for _, v := range o.Instance(i) {
				fmt.Fprintf(bw, ",%s", strconv.FormatFloat(v, 'g', -1, 64))
			}
			if _, err := fmt.Fprintln(bw); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes objects to a CSV file.
func WriteFile(path string, objs []*uncertain.Object) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, objs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
