package diskstore

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

func newPool(t *testing.T, pageSize int) (*pager.Pool, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.pg")
	pf, err := pager.Create(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pager.NewPool(pf, 32), path
}

// create makes an empty store written through a build's TxPager.
func create(t *testing.T, pool *pager.Pool) (*Store, *pager.Direct) {
	t.Helper()
	tx := pager.NewDirect(pool)
	s, err := Create(pool, tx)
	if err != nil {
		t.Fatal(err)
	}
	return s, tx
}

func sameObject(t *testing.T, a, b *uncertain.Object) {
	t.Helper()
	if a.ID() != b.ID() || a.Len() != b.Len() || a.Dim() != b.Dim() || a.Label() != b.Label() {
		t.Fatalf("metadata differs: %v vs %v", a, b)
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Instance(i).Equal(b.Instance(i)) {
			t.Fatalf("instance %d differs", i)
		}
		if math.Abs(a.Prob(i)-b.Prob(i)) > 1e-12 {
			t.Fatalf("prob %d differs", i)
		}
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	pool, _ := newPool(t, 256)
	s, tx := create(t, pool)
	a := uncertain.MustNew(7, []geom.Point{{1, 2}, {3, 4}}, []float64{1, 3}).SetLabel("alpha")
	b := uncertain.MustNew(-3, []geom.Point{{9, 9, 9}}, nil)
	// b has a different dimensionality — the store doesn't care.
	pa, err := s.AppendTx(tx, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.AppendTx(tx, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	gotA, err := s.Read(pa)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, a, gotA)
	gotB, err := s.Read(pb)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, b, gotB)
}

// Records larger than a page must span pages transparently.
func TestLargeRecordSpansPages(t *testing.T) {
	pool, _ := newPool(t, 128)
	s, tx := create(t, pool)
	pts := make([]geom.Point, 50) // 50×3×8 = 1200 bytes of coords alone
	for i := range pts {
		pts[i] = geom.Point{float64(i), float64(i * 2), float64(i * 3)}
	}
	o := uncertain.MustNew(1, pts, nil)
	ptr, err := s.AppendTx(tx, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(ptr)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, o, got)
}

func TestPersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.pg")
	pf, err := pager.Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool := pager.NewPool(pf, 16)
	s, tx := create(t, pool)
	meta := s.Meta()
	ds := datagen.Generate(datagen.Params{N: 30, M: 5, Seed: 3})
	ptrs := make([]Ptr, len(ds.Objects))
	for i, o := range ds.Objects {
		if ptrs[i], err = s.AppendTx(tx, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteMetaTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Flush(); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	pf2, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	pool2 := pager.NewPool(pf2, 16)
	s2, err := Open(pool2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 30 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	for i, o := range ds.Objects {
		got, err := s2.Read(ptrs[i])
		if err != nil {
			t.Fatal(err)
		}
		sameObject(t, o, got)
	}
}

func TestOpenBadMeta(t *testing.T) {
	pool, _ := newPool(t, 256)
	id, buf, err := pool.Allocate(pager.PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "NOPE")
	pool.Unpin(id)
	if _, err := Open(pool, id); err != ErrBadMeta {
		t.Fatalf("err = %v", err)
	}
}

func TestReadBeyondEnd(t *testing.T) {
	pool, _ := newPool(t, 256)
	s, _ := create(t, pool)
	if _, err := s.Read(Ptr(9999)); err == nil {
		t.Fatal("read beyond end accepted")
	}
}

func TestManyRandomObjects(t *testing.T) {
	pool, _ := newPool(t, 512)
	s, tx := create(t, pool)
	rng := rand.New(rand.NewSource(44))
	var objs []*uncertain.Object
	var ptrs []Ptr
	for i := 0; i < 100; i++ {
		m := 1 + rng.Intn(10)
		pts := make([]geom.Point, m)
		ws := make([]float64, m)
		for k := range pts {
			pts[k] = geom.Point{rng.Float64() * 100, rng.Float64() * 100}
			ws[k] = rng.Float64() + 0.01
		}
		o := uncertain.MustNew(i, pts, ws)
		ptr, err := s.AppendTx(tx, o)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
		ptrs = append(ptrs, ptr)
	}
	// Random-order reads, and the MBR a delete reads without the object:
	// the stored object's, bit for bit.
	for _, i := range rng.Perm(len(objs)) {
		got, err := s.Read(ptrs[i])
		if err != nil {
			t.Fatal(err)
		}
		sameObject(t, objs[i], got)
		mbr, err := s.ReadMBR(ptrs[i], func(n int) []float64 { return make([]float64, n) })
		if err != nil {
			t.Fatal(err)
		}
		if !mbr.Equal(objs[i].MBR()) {
			t.Fatalf("object %d: ReadMBR %v, stored MBR %v", i, mbr, objs[i].MBR())
		}
	}
}

// A record decodes to the object that was stored, bit for bit: the
// probabilities are kept as written, not divided by their sum again (which
// changed 344 of these 500 probability words), so a decoded object
// re-encodes to the same bytes — and it does so in a handful of
// allocations, not two per instance.
func TestDecodeRecordBitExact(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 50, M: 10, Centers: datagen.AntiCorrelated, Seed: 1})
	for _, o := range ds.Objects {
		rec := encode(nil, o)
		got, n, err := DecodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rec) || got.ID() != o.ID() || got.Len() != o.Len() || got.Dim() != o.Dim() {
			t.Fatalf("object %d: decoded %v from %d of %d bytes", o.ID(), got, n, len(rec))
		}
		for i := 0; i < o.Len(); i++ {
			if math.Float64bits(got.Prob(i)) != math.Float64bits(o.Prob(i)) {
				t.Fatalf("object %d: probability %d is %x, stored %x", o.ID(), i,
					math.Float64bits(got.Prob(i)), math.Float64bits(o.Prob(i)))
			}
			for j, x := range o.Instance(i) {
				if math.Float64bits(got.Instance(i)[j]) != math.Float64bits(x) {
					t.Fatalf("object %d: coordinate %d,%d differs", o.ID(), i, j)
				}
			}
		}
		if !got.MBR().Equal(o.MBR()) {
			t.Fatalf("object %d: MBR %v, stored %v", o.ID(), got.MBR(), o.MBR())
		}
		if !bytes.Equal(encode(nil, got), rec) {
			t.Fatalf("object %d: re-encoding drifts", o.ID())
		}
	}
	rec := encode(nil, ds.Objects[0])
	if avg := testing.AllocsPerRun(20, func() {
		if _, _, err := DecodeRecord(rec); err != nil {
			t.Fatal(err)
		}
	}); avg > 8 {
		t.Fatalf("decoding a 10-instance record allocates %.0f times, want at most 8", avg)
	}
}
