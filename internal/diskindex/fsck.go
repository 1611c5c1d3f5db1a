package diskindex

// Structural fsck for mutable index files: where pager.Fsck verifies that
// every page's bytes are what was written (checksums), FsckStruct
// verifies that what was written makes sense — the WAL's record chain,
// the agreement of the tree's leaves with the record heap, and the
// free-list/epoch invariants of the post-recovery state. It never mutates
// the file under inspection: when the WAL holds committed transactions
// that have not reached the page file yet, the check runs recovery on a
// private temporary copy.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"spatialdom/internal/diskrtree"
	"spatialdom/internal/diskstore"
	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

// Finding is one structural-invariant violation.
type Finding struct {
	Code   string // stable machine-readable class, e.g. "free-reachable"
	Detail string
}

func (f Finding) String() string { return f.Code + ": " + f.Detail }

// StructReport is the outcome of FsckStruct.
type StructReport struct {
	Path     string
	Findings []Finding

	// WAL summary (zero values when no WAL file exists).
	WALRecords   int
	WALCommitted int   // committed transactions pending replay
	WALTorn      int64 // bytes of a torn append past the last record
	WALStale     int64 // bytes older generations left past the last record

	// Post-recovery structure counts.
	Epoch       uint64
	TreePages   int
	StorePages  int
	FreePages   int
	LiveObjects int // leaf entries of the tree
	// DeadRecords counts the stored records no leaf entry points at. It is
	// set only when StoreScanned: a record scan that stopped early (a
	// "store-scan" finding) has no total to subtract the live ones from.
	DeadRecords  int
	StoreScanned bool
}

// Clean reports whether every structural invariant held.
func (r *StructReport) Clean() bool { return len(r.Findings) == 0 }

func (r *StructReport) flag(code, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Code: code, Detail: fmt.Sprintf(format, args...)})
}

// FsckStruct runs the structural check on the index file at path. The
// returned report lists every violated invariant; an error means the
// check itself could not run (unreadable file), not a dirty file.
//
//nnc:allow ctx-flow: fsck is an offline full-file diagnosis pass, not a query; nothing upstream has a ctx to thread
func FsckStruct(path string, frames int) (*StructReport, error) {
	rep := &StructReport{Path: path}
	if frames <= 0 {
		frames = 64
	}

	// --- WAL record verification (read-only) ---------------------------------
	walPath := path + ".wal"
	committed := make(map[uint64]bool)
	images := make(map[uint64]bool) // txids with page images
	if _, err := os.Stat(walPath); err == nil {
		info, _, err := wal.ScanFile(walPath, 0, func(r wal.Rec) error {
			switch r.Type {
			case wal.RecPageImage:
				images[r.TxID] = true
			case wal.RecCommit:
				committed[r.TxID] = true
			}
			return nil
		})
		if err != nil {
			rep.flag("wal-unreadable", "%v", err)
			return rep, nil
		}
		rep.WALRecords = info.Records
		rep.WALTorn, rep.WALStale = info.Torn, info.Stale
		if info.Torn > 0 {
			rep.flag("wal-torn-tail", "%d bytes past the last valid record (recovery would drop them)", info.Torn)
		}
		for tx := range committed {
			if images[tx] {
				rep.WALCommitted++
			} else {
				rep.flag("wal-empty-commit", "transaction %d committed without page images", tx)
			}
		}
	}

	// --- Post-recovery structural checks -------------------------------------
	// When committed transactions are pending, recover a private copy so the
	// original stays untouched; otherwise inspect the file directly.
	inspect := path
	if rep.WALCommitted > 0 {
		tmpDir, err := os.MkdirTemp(filepath.Dir(path), "fsck-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmpDir)
		inspect = filepath.Join(tmpDir, "recovered.pg")
		if err := copyFsck(path, inspect); err != nil {
			return nil, err
		}
		if err := copyFsck(walPath, inspect+".wal"); err != nil {
			return nil, err
		}
	}

	pf, err := pager.Open(inspect)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	if rep.WALCommitted > 0 {
		wlog, _, err := replayWAL(pf, inspect, nil)
		if err != nil {
			rep.flag("wal-replay", "recovery of committed transactions failed: %v", err)
			return rep, nil
		}
		wlog.Close()
	}
	pool := pager.NewPool(pf, frames)
	pageCount := pager.PageID(pf.Len() + 1) // ids 0..Len() are addressable

	sbuf, err := pool.Get(SuperPageID)
	if err != nil {
		rep.flag("super-unreadable", "%v", err)
		return rep, nil
	}
	sb, perr := DecodeSuper(sbuf)
	pool.Unpin(SuperPageID)
	if perr != nil {
		rep.flag("super-decode", "%v", perr)
		return rep, nil
	}
	rep.Epoch = sb.Epoch
	rep.FreePages = len(sb.Free)

	// reachable collects every page a committed structure owns.
	reachable := map[pager.PageID]string{
		0:            "file header",
		SuperPageID:  "super",
		sb.StoreMeta: "store meta",
		sb.TreeMeta:  "tree meta",
	}
	claim := func(id pager.PageID, owner string) {
		if id >= pageCount {
			rep.flag("page-range", "%s references page %d beyond file end %d", owner, id, pageCount)
			return
		}
		if prev, ok := reachable[id]; ok {
			rep.flag("page-shared", "page %d claimed by both %s and %s", id, prev, owner)
			return
		}
		reachable[id] = owner
	}

	// Tree reachability and MBR containment.
	tree, err := diskrtree.Open(pool, sb.TreeMeta)
	if err != nil {
		rep.flag("tree-open", "%v", err)
		return rep, nil
	}
	var leafRefs []diskstore.Ptr
	var walk func(page pager.PageID, depth int, bound *geom.Rect)
	walk = func(page pager.PageID, depth int, bound *geom.Rect) {
		claim(page, "r-tree")
		rep.TreePages++
		if depth > tree.Height()+1 {
			rep.flag("tree-depth", "walk below page %d exceeds declared height %d", page, tree.Height())
			return
		}
		n, err := tree.ReadNodeVia(pool, page)
		if err != nil {
			rep.flag("tree-node", "page %d: %v", page, err)
			return
		}
		if bound != nil {
			for i, r := range n.Rects {
				if !bound.ContainsRect(r) {
					rep.flag("tree-mbr", "page %d entry %d escapes its parent MBR", page, i)
				}
			}
		}
		if n.Leaf {
			for _, ref := range n.Refs {
				leafRefs = append(leafRefs, diskstore.Ptr(ref))
			}
			return
		}
		for i, child := range n.Refs {
			walk(pager.PageID(child), depth+1, &n.Rects[i])
		}
	}
	if tree.Len() > 0 || tree.Root() != 0 {
		walk(tree.Root(), 1, nil)
	}
	if len(leafRefs) != tree.Len() {
		rep.flag("tree-len", "meta declares %d entries, leaves hold %d", tree.Len(), len(leafRefs))
	}

	// Store chains and record stream.
	store, err := diskstore.Open(pool, sb.StoreMeta)
	if err != nil {
		rep.flag("store-open", "%v", err)
		return rep, nil
	}
	for _, id := range store.DataPages() {
		claim(id, "store data")
		rep.StorePages++
	}
	for _, id := range store.DirPages() {
		claim(id, "store directory")
		rep.StorePages++
	}
	records := 0
	seenIDs := make(map[int]diskstore.Ptr)
	validPtr := make(map[diskstore.Ptr]bool)
	serr := store.Scan(func(p diskstore.Ptr, o *uncertain.Object) error {
		records++
		validPtr[p] = true
		if prev, dup := seenIDs[o.ID()]; dup {
			rep.flag("store-dup-id", "object id %d at ptr %d and %d", o.ID(), prev, p)
		}
		seenIDs[o.ID()] = p
		return nil
	})
	if serr != nil {
		rep.flag("store-scan", "%v", serr)
	}

	// The tree is the record of what is live: every leaf entry addresses a
	// record the scan produced, and no record is indexed twice. The records
	// no leaf points at are the dead ones.
	slices.Sort(leafRefs)
	for i, p := range leafRefs {
		switch {
		case i > 0 && p == leafRefs[i-1]:
			rep.flag("tree-dup-ptr", "record %d is indexed by more than one leaf entry", p)
		case serr == nil && !validPtr[p]:
			rep.flag("tree-ptr", "leaf entry %d does not address a stored record", p)
		}
	}
	rep.LiveObjects = len(leafRefs)
	if serr == nil {
		rep.StoreScanned = true
		rep.DeadRecords = records - len(leafRefs)
	}

	// Free-list invariants: in range, no duplicates, disjoint from every
	// reachable page.
	seenFree := make(map[pager.PageID]bool)
	for _, id := range sb.Free {
		if id >= pageCount {
			rep.flag("free-range", "free page %d beyond file end %d", id, pageCount)
			continue
		}
		if seenFree[id] {
			rep.flag("free-dup", "page %d listed free twice", id)
			continue
		}
		seenFree[id] = true
		if owner, ok := reachable[id]; ok {
			rep.flag("free-reachable", "free page %d is reachable as %s", id, owner)
		}
	}

	// Epoch invariants: a never-mutated file has no mutation artifacts.
	if sb.Epoch == 0 && len(sb.Free) > 0 {
		rep.flag("epoch-zero", "epoch 0 file carries a free list")
	}
	return rep, nil
}

// copyFsck copies src to dst byte-for-byte.
func copyFsck(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
