package diskindex

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/dataio"
	"spatialdom/internal/diskstore"
	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// The object heap has one layout: data pages listed by a page directory,
// written through a pager.TxPager by a build and a mutation alike. These
// tests pin that a file written before the directory still opens and moves
// to the layout on its first write, and that a build keeps every page
// intact when the pool can hold almost none of them.

// TestParentContiguousHeap opens testdata/parent-contiguous.pg, written by
//
//	nnc build -n=60 -m=4 -seed=7 -out=parent-contiguous.pg
//
// at commit a8eb228, when a build laid the heap out in contiguous pages
// with no directory. Read-only it answers as the in-memory index over the
// same objects; one insert through a mutable open gives it a directory,
// and both states pass the structural fsck.
func TestParentContiguousHeap(t *testing.T) {
	ds, _, err := (&dataio.Source{N: 60, M: 4, D: 3, HD: 400, Dist: "anti", Seed: 7}).Load()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "parent.pg")
	copyFile(t, filepath.Join("testdata", "parent-contiguous.pg"), path)

	// fsckStore runs the structural fsck and returns the store's data and
	// directory page counts as a read-only open sees them.
	fsckStore := func(stage string) (data, dir int) {
		t.Helper()
		rep, err := FsckStruct(path, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: fsck: %v", stage, rep.Findings)
		}
		ix, err := OpenFile(path, 32)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		data, dir = len(ix.store.DataPages()), len(ix.store.DirPages())
		if rep.StorePages != data+dir {
			t.Fatalf("%s: fsck counts %d store pages, the store lists %d data + %d directory", stage, rep.StorePages, data, dir)
		}
		return data, dir
	}

	if data, dir := fsckStore("as written"); data == 0 || dir != 0 {
		t.Fatalf("fixture heap has %d data and %d directory pages, want a contiguous heap", data, dir)
	}
	ix, err := OpenFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range ds.Queries(3, 4, 200, 8) {
		for _, op := range core.Operators {
			for _, k := range []int{1, 3} {
				res, err := searchK(ix, q, op, k)
				if err != nil {
					t.Fatalf("q%d %v k=%d: %v", qi, op, k, err)
				}
				if want, got := sortedIDs(memK(mem, q, op, k)), sortedIDs(res); !idsEqual(want, got) {
					t.Fatalf("q%d %v k=%d: disk %v != memory %v", qi, op, k, got, want)
				}
			}
		}
	}
	ix.Close()

	const id = 900001
	obj := uncertain.MustNew(id, []geom.Point{{5000, 5000, 5000}}, nil)
	mix, err := OpenFileMutable(path, &MutableOptions{Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := mix.Insert(obj); err != nil {
		t.Fatal(err)
	}
	if err := mix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, dir := fsckStore("after an insert"); dir != 1 {
		t.Fatalf("after an insert the heap has %d directory pages, want 1", dir)
	}

	ix, err = OpenFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	found := false
	err = ix.ScanLive(func(_ diskstore.Ptr, o *uncertain.Object) error {
		found = found || o.ID() == id
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found || ix.Len() != len(ds.Objects)+1 {
		t.Fatalf("reopened read-only: %d objects, inserted object found: %v", ix.Len(), found)
	}
}

// TestBuildThroughTinyPools builds one dataset through pools of 1, 2 and 4
// frames over 512-byte pages, so every page the build TxPager releases is
// evicted and its frame reused at once: a structure that wrote a buffer
// after its next call on the TxPager would land in another page here.
// Every file must pass the structural fsck, hold every record bit for bit
// and answer as brute force does.
func TestBuildThroughTinyPools(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 800, M: 5, EdgeLen: 400, Seed: 71})
	queries := ds.Queries(2, 4, 200, 72)
	want := make([][]int, len(queries))
	for i, q := range queries {
		for _, o := range core.BruteForceK(ds.Objects, q, core.SSD, 2, core.AllFilters) {
			want[i] = append(want[i], o.ID())
		}
		slices.Sort(want[i])
	}
	byID := make(map[int]*uncertain.Object, len(ds.Objects))
	for _, o := range ds.Objects {
		byID[o.ID()] = o
	}

	for _, frames := range []int{1, 2, 4} {
		path := filepath.Join(t.TempDir(), "tiny.pg")
		pf, err := pager.Create(path, 512)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(pager.NewPool(pf, frames), ds.Objects); err != nil {
			t.Fatalf("%d frames: %v", frames, err)
		}
		if err := pf.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err := FsckStruct(path, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() || rep.LiveObjects != len(ds.Objects) || rep.DeadRecords != 0 {
			t.Fatalf("%d frames: fsck %v, %d live, %d dead", frames, rep.Findings, rep.LiveObjects, rep.DeadRecords)
		}

		ix, err := OpenFile(path, 16)
		if err != nil {
			t.Fatal(err)
		}
		err = ix.ScanLive(func(_ diskstore.Ptr, got *uncertain.Object) error {
			if o := byID[got.ID()]; o == nil || !bitEqual(o, got) {
				t.Fatalf("%d frames: record of object %d does not decode to the object built", frames, got.ID())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			res, err := searchK(ix, q, core.SSD, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedIDs(res); !idsEqual(got, want[i]) {
				t.Fatalf("%d frames, q%d: disk %v != brute force %v", frames, i, got, want[i])
			}
		}
		ix.Close()
	}
}

// TestLeafRecordsContiguous: a build writes the object heap in tree order,
// so the records of one leaf are adjacent, in the leaf's entry order, on no
// more pages than their bytes need plus one — while the tree itself is the
// one BulkLoad tiles over input order, entry for entry the in-memory
// index's. Inserts append at the heap's tail, away from their leaves; a
// rewrite puts every leaf's records back together. The objects sit on an
// integer grid, so the STR sorts meet many equal centres.
func TestLeafRecordsContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	gridObject := func(id int) *uncertain.Object {
		c := geom.Point{float64(rng.Intn(40) * 10), float64(rng.Intn(40) * 10)}
		a, b := float64(1+rng.Intn(8)), float64(1+rng.Intn(8))
		return uncertain.MustNew(id, []geom.Point{{c[0] - a, c[1] - b}, c, {c[0] + a, c[1] + b}}, nil)
	}
	objs := make([]*uncertain.Object, 1200)
	for i := range objs {
		objs[i] = gridObject(i + 1)
	}
	mem, err := core.NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "leaves.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Build(pager.NewPool(pf, 64), objs)
	if err != nil {
		t.Fatal(err)
	}
	if leaves, _ := sameShape(t, mem, disk, true); leaves < 10 || t.Failed() {
		t.Fatalf("the build's tree is not the in-memory index's (%d leaves)", leaves)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if leaves, scattered := scatteredLeaves(t, path); scattered != 0 {
		t.Fatalf("built: %d of %d leaves have their records out of order or spread out", scattered, leaves)
	}

	mix, err := OpenFileMutable(path, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 50 {
		if err := mix.Insert(gridObject(len(objs) + 1 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, scattered := scatteredLeaves(t, path); scattered == 0 {
		t.Fatal("after 50 inserts at the heap's tail every leaf still has its records together")
	}

	if err := RewriteFile(path, 64); err != nil {
		t.Fatal(err)
	}
	if leaves, scattered := scatteredLeaves(t, path); scattered != 0 {
		t.Fatalf("rewritten: %d of %d leaves have their records out of order or spread out", scattered, leaves)
	}
}

// scatteredLeaves walks every leaf of the file at path and counts those
// whose records do not follow the leaf's entry order, or fill more than
// ⌈record bytes / page size⌉ + 1 heap pages.
func scatteredLeaves(t *testing.T, path string) (leaves, scattered int) {
	t.Helper()
	ix, err := OpenFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	snap := ix.snap.Load()
	ps := uint64(ix.pool.File().PageSize())
	var walk func(page pager.PageID)
	walk = func(page pager.PageID) {
		n, err := ix.tree.ReadNodeVia(ix.pool, page)
		if err != nil {
			t.Fatal(err)
		}
		if !n.Leaf {
			for _, ref := range n.Refs {
				walk(pager.PageID(ref))
			}
			return
		}
		leaves++
		var bytes uint64
		pages := map[uint64]bool{}
		ordered := true
		for i, ref := range n.Refs {
			o, err := snap.store.Read(diskstore.Ptr(ref))
			if err != nil {
				t.Fatal(err)
			}
			from, size := uint64(ref), uint64(diskstore.EncodedLen(o))
			for p := from / ps; p <= (from+size-1)/ps; p++ {
				pages[p] = true
			}
			bytes += size
			ordered = ordered && (i == 0 || ref > n.Refs[i-1])
		}
		if !ordered || uint64(len(pages)) > (bytes+ps-1)/ps+1 {
			scattered++
		}
	}
	walk(snap.root)
	return leaves, scattered
}

// bitEqual reports whether two objects carry the same id, label and float
// bits.
func bitEqual(a, b *uncertain.Object) bool {
	if a.ID() != b.ID() || a.Len() != b.Len() || a.Dim() != b.Dim() || a.Label() != b.Label() {
		return false
	}
	for i := range a.Len() {
		if math.Float64bits(a.Prob(i)) != math.Float64bits(b.Prob(i)) {
			return false
		}
		for j, x := range a.Instance(i) {
			if math.Float64bits(b.Instance(i)[j]) != math.Float64bits(x) {
				return false
			}
		}
	}
	return true
}
