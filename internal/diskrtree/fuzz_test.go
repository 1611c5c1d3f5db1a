package diskrtree

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// encodeNodeBytes builds a valid on-page node image for seeding the
// fuzzer, mirroring writeNode's layout: leaf flag u8 | count u16 | count ×
// (lo ×dim f64 | hi ×dim f64 | ref u64).
func encodeNodeBytes(leaf bool, dim int, rects [][2][]float64, refs []uint64) []byte {
	buf := make([]byte, 3+len(rects)*(16*dim+8))
	if leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(rects)))
	off := 3
	for i, r := range rects {
		for j := 0; j < dim; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(r[0][j]))
			off += 8
		}
		for j := 0; j < dim; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(r[1][j]))
			off += 8
		}
		binary.LittleEndian.PutUint64(buf[off:], refs[i])
		off += 8
	}
	return buf
}

// FuzzNodeDecode drives the R-tree node decoder with arbitrary pages: it
// must never panic, and every accepted node must be shaped consistently
// with its declared entry count.
func FuzzNodeDecode(f *testing.F) {
	f.Add(encodeNodeBytes(true, 2,
		[][2][]float64{{{0, 0}, {1, 1}}, {{2, 2}, {3, 3}}}, []uint64{7, 9}), 2)
	f.Add(encodeNodeBytes(false, 3,
		[][2][]float64{{{0, 0, 0}, {5, 5, 5}}}, []uint64{4}), 3)
	f.Add([]byte{}, 2)
	f.Add([]byte{1, 0}, 2)

	f.Fuzz(func(t *testing.T, buf []byte, dim int) {
		n, err := DecodeNode(buf, dim)
		if err != nil {
			if !errors.Is(err, ErrCorruptNode) {
				t.Fatalf("decode error does not wrap ErrCorruptNode: %v", err)
			}
			if n != nil {
				t.Fatal("error with non-nil node")
			}
			return
		}
		// Only a leaf may be empty: Create without entries writes a zero-entry leaf
		// root, and the decoder accepts exactly that.
		if n == nil || (len(n.Rects) < 1 && !n.Leaf) {
			t.Fatal("accepted internal node has no entries")
		}
		if len(n.Refs) != len(n.Rects) {
			t.Fatalf("shape mismatch: %d refs, %d rects", len(n.Refs), len(n.Rects))
		}
		for _, r := range n.Rects {
			if r.Lo.Dim() != dim || r.Hi.Dim() != dim {
				t.Fatalf("rect dim != %d", dim)
			}
		}
	})
}
