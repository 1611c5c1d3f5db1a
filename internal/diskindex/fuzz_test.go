package diskindex

import (
	"encoding/binary"
	"errors"
	"testing"

	"spatialdom/internal/pager"
)

// superImage is a valid super-page image for seeding the fuzzer.
func superImage(sb SuperBlock) []byte {
	buf := make([]byte, 64)
	EncodeSuper(buf, sb)
	return buf
}

// FuzzSuperDecode drives the super-page decoder with arbitrary bytes: it
// must never panic, and every accepted image must yield two distinct
// nonzero metadata pages and no reserved page on its free list. The first
// seed carries the ID span older writers put in bytes 12–20.
func FuzzSuperDecode(f *testing.F) {
	spanned := superImage(SuperBlock{StoreMeta: 2, TreeMeta: 17})
	binary.LittleEndian.PutUint64(spanned[12:], 1000)
	f.Add(spanned)
	f.Add(superImage(SuperBlock{StoreMeta: 3, TreeMeta: 4, Epoch: 9, Free: []pager.PageID{5, 6}}))
	f.Add([]byte(superMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		sb, err := DecodeSuper(buf)
		if err != nil {
			if !errors.Is(err, ErrBadSuper) {
				t.Fatalf("decode error does not wrap ErrBadSuper: %v", err)
			}
			return
		}
		if sb.StoreMeta == 0 || sb.TreeMeta == 0 || sb.StoreMeta == sb.TreeMeta {
			t.Fatalf("accepted super with meta pages %d/%d", sb.StoreMeta, sb.TreeMeta)
		}
		for _, id := range sb.Free {
			if id <= SuperPageID {
				t.Fatalf("accepted a free list holding reserved page %d", id)
			}
		}
	})
}
