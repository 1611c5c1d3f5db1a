package diskstore

import (
	"errors"
	"math"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// FuzzRecordDecode drives the record decoder with arbitrary bytes: it must
// never panic and never allocate from unvalidated lengths, and every
// accepted record must be internally consistent.
func FuzzRecordDecode(f *testing.F) {
	// Valid encodings as seeds, so the fuzzer starts from the format's
	// happy path instead of rediscovering the header layout.
	mk := func(id int, pts []geom.Point, probs []float64, label string) []byte {
		o, err := uncertain.New(id, pts, probs)
		if err != nil {
			f.Fatal(err)
		}
		if label != "" {
			o.SetLabel(label)
		}
		return encode(nil, o)
	}
	f.Add(mk(1, []geom.Point{{1, 2}, {3, 4}}, nil, ""))
	f.Add(mk(-7, []geom.Point{{0.5}}, []float64{1}, "labelled"))
	f.Add(mk(42, []geom.Point{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, []float64{0.2, 0.3, 0.5}, "x"))
	f.Add([]byte{})
	f.Add(make([]byte, 15))

	f.Fuzz(func(t *testing.T, data []byte) {
		o, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			if o != nil {
				t.Fatal("error with non-nil object")
			}
			return
		}
		if o == nil || n <= 0 || n > len(data) {
			t.Fatalf("accepted record inconsistent: o=%v n=%d len=%d", o, n, len(data))
		}
		if o.Len() < 1 || o.Dim() < 1 {
			t.Fatalf("accepted object with shape m=%d d=%d", o.Len(), o.Dim())
		}
		if n != EncodedLen(o) {
			t.Fatalf("consumed %d bytes but EncodedLen says %d", n, EncodedLen(o))
		}
		var mass float64
		for i, p := range o.Probs() {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				t.Fatalf("accepted probability %d = %g", i, p)
			}
			mass += p
			for _, x := range o.Instance(i) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted coordinate %g in instance %d", x, i)
				}
			}
		}
		if mass <= 0 {
			t.Fatalf("accepted an object of mass %g", mass)
		}
	})
}
