package diskindex

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/diskrtree"
	"spatialdom/internal/diskstore"
	"spatialdom/internal/pager"
	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

// fsckBase builds a mutated index file: enough deletes to leave dead
// records in the heap and park pages on the free list, then a clean close.
func fsckBase(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "base.pg")
	ds := datagen.Generate(datagen.Params{N: 200, M: 5, EdgeLen: 400, Seed: 51})
	ix, err := CreateFileMutable(path, 3, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ds.Objects {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range ds.Objects[:40] {
		if ok, err := ix.Delete(o.ID()); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", o.ID(), ok, err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// logSuper opens the WAL beside the page file at path, positioned after
// its records and wrapped by wrap, and hands fn the log and an image of
// the super page as the page file holds it.
func logSuper(t *testing.T, path string, wrap func(*os.File) wal.File, fn func(*wal.Log, wal.PageImage)) {
	t.Helper()
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	im := wal.PageImage{ID: SuperPageID, Data: make([]byte, pf.PageSize())}
	im.Type, err = pf.ReadPage(SuperPageID, im.Data)
	pf.Close()
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(path+".wal", len(im.Data), wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Scan(nil); err != nil {
		t.Fatal(err)
	}
	fn(l, im)
}

func fsckCopy(t *testing.T, base, dst string) {
	t.Helper()
	copyFile(t, base, dst)
	copyFile(t, base+".wal", dst+".wal")
}

// editSuper rewrites the super page through f, resealing the checksum, so
// the corruption is invisible to the page-level fsck and only the
// structural pass can catch it.
func editSuper(t *testing.T, path string, f func(*SuperBlock)) {
	t.Helper()
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, pf.PageSize())
	if _, err := pf.ReadPage(SuperPageID, buf); err != nil {
		t.Fatal(err)
	}
	sb, err := DecodeSuper(buf)
	if err != nil {
		t.Fatal(err)
	}
	f(&sb)
	EncodeSuper(buf, sb)
	if err := pf.WritePage(SuperPageID, buf, pager.PageSuper); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
}

// leafPages returns the page ids of the tree's leaves, left to right.
func leafPages(t *testing.T, path string) []pager.PageID {
	t.Helper()
	ix, err := OpenFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var leaves []pager.PageID
	var walk func(page pager.PageID)
	walk = func(page pager.PageID) {
		n, err := ix.tree.ReadNodeVia(ix.pool, page)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			leaves = append(leaves, page)
			return
		}
		for _, child := range n.Refs {
			walk(pager.PageID(child))
		}
	}
	walk(ix.tree.Root())
	return leaves
}

// editLeaf rewrites one tree node in place through f, resealing the checksum.
func editLeaf(t *testing.T, path string, page pager.PageID, f func(*rtree.Node)) {
	t.Helper()
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, pf.PageSize())
	if _, err := pf.ReadPage(page, buf); err != nil {
		t.Fatal(err)
	}
	n, err := diskrtree.DecodeNode(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	f(n)
	if err := diskrtree.EncodeNode(buf, 3, n); err != nil {
		t.Fatal(err)
	}
	if err := pf.WritePage(page, buf, pager.PageTreeNode); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
}

// deadPtrs returns the records of the file's heap no leaf entry points at,
// in stream order — what the parent format's tombstone log listed.
func deadPtrs(t *testing.T, path string) []diskstore.Ptr {
	t.Helper()
	ix, err := OpenFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	live := make(map[diskstore.Ptr]bool)
	if err := ix.ScanLive(func(p diskstore.Ptr, _ *uncertain.Object) error { live[p] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	var dead []diskstore.Ptr
	err = ix.store.Scan(func(p diskstore.Ptr, _ *uncertain.Object) error {
		if !live[p] {
			dead = append(dead, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dead
}

// writeTombChain gives the file what the parent format kept beside the
// tree: a chain of PageMapLog pages (count u16 | next u32 | ptrs u64 × count,
// each page filled before the next is linked) listing the deleted record
// pointers, with the chain's head, tail and tail-entry count in super bytes
// 28–40.
func writeTombChain(t *testing.T, path string, ptrs []diskstore.Ptr) {
	t.Helper()
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	per := (pf.PageSize() - 6) / 8
	var pages []pager.PageID
	for n := 0; n < len(ptrs); n += per {
		id, err := pf.Allocate(pager.PageMapLog)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, id)
	}
	tailCount := 0
	buf := make([]byte, pf.PageSize())
	for i, id := range pages {
		clear(buf)
		chunk := ptrs[i*per : min((i+1)*per, len(ptrs))]
		binary.LittleEndian.PutUint16(buf, uint16(len(chunk)))
		if i+1 < len(pages) {
			binary.LittleEndian.PutUint32(buf[2:], uint32(pages[i+1]))
		}
		for j, p := range chunk {
			binary.LittleEndian.PutUint64(buf[6+8*j:], uint64(p))
		}
		if err := pf.WritePage(id, buf, pager.PageMapLog); err != nil {
			t.Fatal(err)
		}
		tailCount = len(chunk)
	}
	if _, err := pf.ReadPage(SuperPageID, buf); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[28:], uint32(pages[0]))
	binary.LittleEndian.PutUint32(buf[32:], uint32(pages[len(pages)-1]))
	binary.LittleEndian.PutUint32(buf[36:], uint32(tailCount))
	if err := pf.WritePage(SuperPageID, buf, pager.PageSuper); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
}

func hasFinding(rep *StructReport, code string) bool {
	for _, f := range rep.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

// TestFsckStructDetectsSeededCorruption corrupts one structural invariant
// per case — always with valid page checksums, so pager.Fsck alone would
// pass — and requires FsckStruct to flag every single one.
func TestFsckStructDetectsSeededCorruption(t *testing.T) {
	dir := t.TempDir()
	base := fsckBase(t, dir)

	clean, err := FsckStruct(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() {
		t.Fatalf("clean base flagged: %v", clean.Findings)
	}
	if clean.FreePages == 0 {
		t.Fatal("base file has no free pages; corruption cases need one")
	}
	if clean.LiveObjects != 160 || clean.DeadRecords != 40 {
		t.Fatalf("base file reports %d live objects and %d dead records, want 160 and 40", clean.LiveObjects, clean.DeadRecords)
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		want    string // the finding's code; "" for an edit that must leave the file clean
	}{
		{"free-list holds a reachable page", func(t *testing.T, path string) {
			editSuper(t, path, func(sb *SuperBlock) { sb.Free = append(sb.Free, sb.StoreMeta) })
		}, "free-reachable"},
		{"free-list duplicate entry", func(t *testing.T, path string) {
			editSuper(t, path, func(sb *SuperBlock) { sb.Free = append(sb.Free, sb.Free[0]) })
		}, "free-dup"},
		{"free-list id beyond file end", func(t *testing.T, path string) {
			editSuper(t, path, func(sb *SuperBlock) { sb.Free = append(sb.Free, 1<<20) })
		}, "free-range"},
		{"leaf entry past the stream tail", func(t *testing.T, path string) {
			leaves := leafPages(t, path)
			editLeaf(t, path, leaves[0], func(n *rtree.Node) { n.Refs[0] = 1 << 40 })
		}, "tree-ptr"},
		{"one record referenced from two leaves", func(t *testing.T, path string) {
			leaves := leafPages(t, path)
			if len(leaves) < 2 {
				t.Fatalf("base tree has %d leaves; the case needs two", len(leaves))
			}
			var ref rtree.NodeID
			editLeaf(t, path, leaves[0], func(n *rtree.Node) { ref = n.Refs[0] })
			editLeaf(t, path, leaves[1], func(n *rtree.Node) { n.Refs[0] = ref })
		}, "tree-dup-ptr"},
		{"record header damaged under a valid checksum", func(t *testing.T, path string) {
			ix, err := OpenFile(path, 32)
			if err != nil {
				t.Fatal(err)
			}
			first := ix.store.DataPages()[0]
			ix.Close()
			pf, err := pager.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer pf.Close()
			buf := make([]byte, pf.PageSize())
			if _, err := pf.ReadPage(first, buf); err != nil {
				t.Fatal(err)
			}
			clear(buf[8:12]) // the stream's first record now declares no instances
			if err := pf.WritePage(first, buf, pager.PageStoreData); err != nil {
				t.Fatal(err)
			}
		}, "store-scan"},
		{"parent-format super carrying a tombstone chain", func(t *testing.T, path string) {
			writeTombChain(t, path, deadPtrs(t, path))
		}, ""},
		{"epoch zero with mutation artifacts", func(t *testing.T, path string) {
			editSuper(t, path, func(sb *SuperBlock) { sb.Epoch = 0 })
		}, "epoch-zero"},
		{"wal torn tail", func(t *testing.T, path string) {
			// The log dies 40 bytes into a transaction's image write.
			logSuper(t, path, func(f *os.File) wal.File { return wal.NewCrashFile(f, 40) }, func(l *wal.Log, im wal.PageImage) {
				if _, err := l.Commit([]wal.PageImage{im}); !errors.Is(err, wal.ErrCrash) {
					t.Fatalf("commit over a crashing log: %v", err)
				}
			})
		}, "wal-torn-tail"},
		{"wal bytes of an older generation", func(t *testing.T, path string) {
			// A transaction rewriting the super page as it is, then a
			// checkpoint: its records stay in the file, a generation old.
			logSuper(t, path, nil, func(l *wal.Log, im wal.PageImage) {
				if _, err := l.Commit([]wal.PageImage{im}); err != nil {
					t.Fatal(err)
				}
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			})
		}, ""},
		{"wal commit without images", func(t *testing.T, path string) {
			pf, err := pager.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			payload := pf.PageSize()
			pf.Close()
			l, err := wal.Open(path+".wal", payload, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, err := l.Scan(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Commit(nil); err != nil {
				t.Fatal(err)
			}
		}, "wal-empty-commit"},
	}

	detected := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			work := filepath.Join(dir, "work.pg")
			fsckCopy(t, base, work)
			tc.corrupt(t, work)
			rep, err := FsckStruct(work, 64)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if !rep.Clean() || rep.DeadRecords != clean.DeadRecords {
					t.Fatalf("%d dead records, findings %v; want the base file's %d and none",
						rep.DeadRecords, rep.Findings, clean.DeadRecords)
				}
			} else if rep.Clean() {
				t.Fatalf("corruption %q not detected", tc.name)
			} else if !hasFinding(rep, tc.want) {
				t.Fatalf("finding %q missing; got %v", tc.want, rep.Findings)
			}
			// A scan that stopped early has no record total: the dead count
			// stays unset instead of going negative.
			if scanned := tc.want != "store-scan"; rep.StoreScanned != scanned || (!scanned && rep.DeadRecords != 0) {
				t.Fatalf("StoreScanned = %v with %d dead records; want %v and a count only after a full scan",
					rep.StoreScanned, rep.DeadRecords, scanned)
			}
			detected++
		})
	}
	if detected != len(cases) {
		t.Fatalf("%d/%d seeded corruptions detected", detected, len(cases))
	}
}

// TestFsckStructPendingWAL checks a crashed-but-committed file: fsck must
// judge the post-recovery state clean without mutating the original.
func TestFsckStructPendingWAL(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 25, M: 4, EdgeLen: 400, Seed: 53})
	base := crashBase(t, dir, ds.Objects[:24])

	work := filepath.Join(dir, "work.pg")
	fsckCopy(t, base, work)
	ix, err := OpenFileMutable(work, &MutableOptions{Frames: 32, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(ds.Objects[24]); err != nil {
		t.Fatal(err)
	}
	// Crash: the commit lives only in the WAL.
	ix.mut.wal.Close()
	ix.pool.File().Close()

	before, err := os.ReadFile(work)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStruct(work, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("pending-WAL file flagged: %v", rep.Findings)
	}
	if rep.WALCommitted == 0 {
		t.Fatal("committed transaction not reported as pending replay")
	}
	after, err := os.ReadFile(work)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("fsck mutated the file under inspection")
	}
}
