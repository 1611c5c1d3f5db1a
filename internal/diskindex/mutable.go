package diskindex

// The mutable disk index: Insert/Delete with WAL durability and
// snapshot-isolated readers.
//
// # Write path
//
// One writer at a time (writeMu). A mutation stages every page it touches
// in a Tx, then commits: wal.Log.Commit writes the page images to the log
// in one write, the commit record in a second and fsyncs (the durability
// point), the images are installed into the buffer pool with Put, and
// finally a new snapshot is published. The writer reuses one Tx and
// recycles its page buffers (tx.go): the log and Put both copy, so a staged
// buffer is the transaction's alone and free again when it ends. The page
// file itself receives committed images lazily — by buffer-pool eviction
// or at a checkpoint — which is safe because recovery replays the WAL over
// the file.
//
// # Read path
//
// Readers never lock. A search pins the current snapshot (epoch, tree
// root, store clone) with a refcount and walks pages through the buffer
// pool; on a read-only index that snapshot is simply never replaced.
// Copy-on-write keeps that sound: a committed transaction only ever Puts
// page images that no live snapshot can reach — tree nodes and store data
// pages are rewritten at fresh page ids, and the pages updated in place
// (super, metadata, store directory) are ones searches never read
// mid-flight.
//
// # Reclamation
//
// Pages freed by a transaction are tagged with the pre-transaction epoch
// and parked; they rejoin the free list only when every snapshot at or
// below that epoch has been released (retired snapshots drain in epoch
// order). The persisted free list in the super page is written as if no
// readers existed — correct for the post-crash world, where there are
// none.
//
// # Failure
//
// A Log.Commit error from before the commit record's write aborts cleanly:
// nothing was published and no commit record can follow, so whatever
// reached the log is a torn tail the next write truncates. One that wraps
// wal.ErrIndeterminate — the commit record's write or its fsync failed —
// or a failed cache install poisons the index: the transaction's
// durability is indeterminate, so further writes are refused while readers
// continue on the last published snapshot; reopening the file runs WAL
// recovery and resolves the ambiguity either way.

import (
	"errors"
	"fmt"
	"os"

	"spatialdom/internal/core"
	"spatialdom/internal/diskrtree"
	"spatialdom/internal/diskstore"
	"spatialdom/internal/pager"
	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

var (
	// ErrReadOnly is returned by Insert/Delete on an index opened without a
	// WAL (Build/Open rather than CreateFileMutable/OpenFileMutable).
	ErrReadOnly = errors.New("diskindex: index is read-only")
	// ErrPoisoned wraps the error that poisoned the write path: a commit
	// whose durability is indeterminate. Reads continue; writes are refused
	// until the file is reopened (which runs WAL recovery).
	ErrPoisoned = errors.New("diskindex: write path poisoned")
	// ErrClosed is returned by operations on a closed mutable index.
	ErrClosed = errors.New("diskindex: index closed")
)

// DefaultWALLimit is the WAL size that triggers an automatic checkpoint
// after a commit.
const DefaultWALLimit = 4 << 20

// MutableOptions configures CreateFileMutable / OpenFileMutable. The zero
// value (or a nil pointer) picks defaults throughout.
type MutableOptions struct {
	// WALLimit is the log size in bytes that triggers an automatic
	// checkpoint after a commit; 0 means DefaultWALLimit, negative disables
	// auto-checkpointing.
	WALLimit int64
	// Frames bounds the buffer pool (default 256).
	Frames int
	// WALWrap, if non-nil, intercepts the WAL's underlying file — the
	// crash-injection hook used by the kill-point sweep tests.
	WALWrap func(*os.File) wal.File
}

// resolved returns the options with every default filled in; o may be nil.
func (o *MutableOptions) resolved() MutableOptions {
	var r MutableOptions
	if o != nil {
		r = *o
	}
	if r.Frames <= 0 {
		r.Frames = 256
	}
	if r.WALLimit == 0 {
		r.WALLimit = DefaultWALLimit
	}
	return r
}

// pendingFree is a freed page waiting for readers: reachable by snapshots
// with epoch <= epoch, reusable once the oldest live epoch exceeds it.
type pendingFree struct {
	id    pager.PageID
	epoch uint64
}

// mutState is the writer-side state of a mutable index, guarded by
// Index.writeMu.
type mutState struct {
	wal      *wal.Log
	walLimit int64 // auto-checkpoint threshold; <= 0 disables it

	free    []pager.PageID
	pending []pendingFree
	retired []*snapshot

	tx        *Tx             // the one transaction, emptied by release
	freeBufs  [][]byte        // page buffers between transactions, at most maxFreeBufs
	superFree []pager.PageID  // stageSuper's scratch for the persisted free list
	arena     diskrtree.Arena // the nodes and rectangles of one mutation, reset by release

	byID map[int]diskstore.Ptr

	ckptFails int // best-effort auto-checkpoints that failed

	recovered *wal.RecoveryStats
	poisoned  error
	closed    bool
}

// --- snapshot pin ------------------------------------------------------------

// pinned runs fn on the current snapshot, pinned for exactly the call: the
// pin is a count no caller ever holds, so it cannot leak past an error, a
// cancellation or a panic in fn. The add-then-recheck loop closes the race
// with a concurrent publish: a reader that pinned a just-retired snapshot
// detects the swap and retries, so the writer's "refs drained" test never
// misses a reader actually inside the snapshot.
func (ix *Index) pinned(fn func(*snapshot)) {
	s := ix.snap.Load()
	for {
		s.refs.Add(1)
		cur := ix.snap.Load()
		if cur == s {
			break
		}
		s.refs.Add(-1)
		s = cur
	}
	defer s.refs.Add(-1)
	fn(s)
}

// reclaim pops drained retired snapshots (in epoch order) and moves
// pending frees no live snapshot can reach onto the free list.
func (m *mutState) reclaim(curEpoch uint64) {
	for len(m.retired) > 0 && m.retired[0].refs.Load() == 0 {
		m.retired = m.retired[1:]
	}
	minLive := curEpoch
	if len(m.retired) > 0 {
		minLive = m.retired[0].epoch
	}
	keep := m.pending[:0]
	for _, p := range m.pending {
		if p.epoch < minLive {
			m.free = append(m.free, p.id)
		} else {
			keep = append(keep, p)
		}
	}
	m.pending = keep
}

// --- open / create -----------------------------------------------------------

// CreateFileMutable creates an empty mutable index file of the given
// dimensionality at path, plus its WAL beside it. The returned Index
// serves searches and accepts Insert/Delete; Close releases both files.
//
//nnc:allow ctx-flow: CreateFileMutable is startup file creation, not a query; nothing upstream has a ctx to thread
func CreateFileMutable(path string, dim int, opts *MutableOptions) (*Index, error) {
	o := opts.resolved()
	ix, err := createFile(path, o.Frames, dim, nil)
	if err != nil {
		return nil, err
	}
	pf := ix.pool.File()
	wlog, err := wal.Open(path+".wal", pf.PageSize(), o.WALWrap)
	if err != nil {
		pf.Close()
		return nil, err
	}
	if err := ix.attachWriter(nil, wlog, o.WALLimit, nil); err != nil {
		wlog.Close()
		pf.Close()
		return nil, err
	}
	return ix, nil
}

// OpenFileMutable opens an index file for reading and writing: it runs
// WAL recovery first (resolving any crash), then attaches the mutable
// machinery. The file may have been written by Build, CreateFileMutable
// or a previous mutable session.
//
//nnc:allow ctx-flow: OpenFileMutable is startup recovery + attach, not a query; nothing upstream has a ctx to thread
func OpenFileMutable(path string, opts *MutableOptions) (*Index, error) {
	pf, err := pager.Open(path)
	if err != nil {
		return nil, err
	}
	return openMutable(pf, path, opts)
}

// openMutable is OpenFileMutable past opening the page file at path; it
// closes pf on failure.
func openMutable(pf *pager.PageFile, path string, opts *MutableOptions) (*Index, error) {
	o := opts.resolved()
	wlog, rec, err := replayWAL(pf, path, o.WALWrap)
	if err != nil {
		pf.Close()
		return nil, err
	}
	ix, sb, err := attach(pager.NewPool(pf, o.Frames), SuperPageID)
	if err == nil {
		err = ix.attachWriter(sb.Free, wlog, o.WALLimit, rec)
	}
	if err != nil {
		wlog.Close()
		pf.Close()
		return nil, err
	}
	return ix, nil
}

// attachWriter wires the writer-side state onto a freshly constructed
// index: the id → record map off its live records, the free list the super
// page persisted, and the open log.
func (ix *Index) attachWriter(free []pager.PageID, wlog *wal.Log, walLimit int64, rec *wal.RecoveryStats) error {
	byID := make(map[int]diskstore.Ptr, ix.Len())
	dups := 0
	err := ix.ScanLive(func(p diskstore.Ptr, o *uncertain.Object) error {
		if _, ok := byID[o.ID()]; ok {
			dups++
		}
		byID[o.ID()] = p
		return nil
	})
	if err != nil {
		return err
	}
	if dups > 0 {
		return fmt.Errorf("diskindex: %d duplicate object ids; a mutable index needs unique ids (rebuild the file)", dups)
	}
	ix.mut = &mutState{
		wal:       wlog,
		walLimit:  walLimit,
		free:      append([]pager.PageID(nil), free...),
		byID:      byID,
		recovered: rec,
	}
	ix.mut.tx = newTx(ix)
	return nil
}

// --- mutations ---------------------------------------------------------------

// writer returns the writer-side state, or why the index takes no write.
// The caller holds writeMu.
func (ix *Index) writer() (*mutState, error) {
	m := ix.mut
	switch {
	case m == nil:
		return nil, ErrReadOnly
	case m.closed:
		return nil, ErrClosed
	case m.poisoned != nil:
		return nil, fmt.Errorf("%w: %w", ErrPoisoned, m.poisoned)
	}
	return m, nil
}

// Insert adds an object, mirroring the in-memory dynamic API: the
// object's ID must be unused and its dimensionality must match. When
// Insert returns nil the object is durable (WAL commit fsynced).
// Searches already in flight keep the snapshot they started with;
// searches started afterwards see the new object.
//
//nnc:allow ctx-flow: a write transaction must run to completion — aborting mid-commit is exactly the crash recovery exists for, so Insert takes no ctx by design
func (ix *Index) Insert(o *uncertain.Object) error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	m, err := ix.writer()
	if err != nil {
		return err
	}
	if o.Dim() != ix.tree.Dim() {
		return fmt.Errorf("%w: object %d has dim %d, want %d", core.ErrIndexDimMix, o.ID(), o.Dim(), ix.tree.Dim())
	}
	if _, dup := m.byID[o.ID()]; dup {
		return fmt.Errorf("%w: %d", core.ErrDuplicateID, o.ID())
	}

	treeSt, storeSt := ix.tree.State(), ix.store.State()
	tx := m.tx
	defer tx.release()
	var ptr diskstore.Ptr
	err = func() error {
		var err error
		ptr, err = ix.store.AppendTx(tx, o)
		if err != nil {
			return err
		}
		if err := ix.tree.InsertTx(tx, &m.arena, rtree.Entry{Rect: o.MBR(), ID: int64(ptr)}); err != nil {
			return err
		}
		if err := ix.store.WriteMetaTx(tx); err != nil {
			return err
		}
		return ix.tree.WriteMetaTx(tx)
	}()
	if err == nil {
		err = ix.commitTx(tx)
	}
	if err != nil {
		ix.tree.Restore(treeSt)
		ix.store.Restore(storeSt)
		tx.abort()
		return err
	}
	m.byID[o.ID()] = ptr
	ix.maybeCheckpoint()
	return nil
}

// Delete removes the object with the given ID, reporting whether it was
// present. A true/nil return means the delete is durable; concurrent
// searches keep the snapshot they started with.
//
//nnc:allow ctx-flow: a write transaction must run to completion — aborting mid-commit is exactly the crash recovery exists for, so Delete takes no ctx by design
func (ix *Index) Delete(id int) (bool, error) {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	m, err := ix.writer()
	if err != nil {
		return false, err
	}
	ptr, ok := m.byID[id]
	if !ok {
		return false, nil
	}

	// Removing the leaf entry is the whole delete: the record stays in the
	// heap, unreferenced, until `nnc rewrite` compacts the file. The entry
	// is found by the record's MBR, read without decoding the object, into
	// the mutation's arena.
	treeSt := ix.tree.State()
	tx := m.tx
	defer tx.release()
	err = func() error {
		mbr, err := ix.store.ReadMBR(ptr, m.arena.Corners)
		if err != nil {
			return err
		}
		removed, err := ix.tree.DeleteTx(tx, &m.arena, rtree.Entry{Rect: mbr, ID: int64(ptr)})
		if err != nil {
			return err
		}
		if !removed {
			return fmt.Errorf("diskindex: object %d (ptr %d) indexed but absent from tree", id, ptr)
		}
		return ix.tree.WriteMetaTx(tx)
	}()
	if err == nil {
		err = ix.commitTx(tx)
	}
	if err != nil {
		ix.tree.Restore(treeSt)
		tx.abort()
		return false, err
	}
	delete(m.byID, id)
	ix.maybeCheckpoint()
	return true, nil
}

// stageSuper stages the post-transaction super page. The persisted free
// list is written for the post-crash world — no readers — so it includes
// the pages still parked for snapshot drain and the ones this transaction
// freed.
func (ix *Index) stageSuper(tx *Tx, epoch uint64) error {
	m := ix.mut
	m.superFree = append(m.superFree[:0], m.free...)
	m.superFree = append(m.superFree, tx.recycle...)
	for _, p := range m.pending {
		m.superFree = append(m.superFree, p.id)
	}
	m.superFree = append(m.superFree, tx.freed...)
	buf, err := tx.Stage(ix.super, pager.PageSuper)
	if err != nil {
		return err
	}
	EncodeSuper(buf, SuperBlock{
		StoreMeta: ix.store.Meta(),
		TreeMeta:  ix.tree.Meta(),
		Epoch:     epoch,
		Free:      m.superFree,
	})
	return nil
}

//nnc:coldpath error path: formats once, after which every write is refused
func (ix *Index) poison(step string, err error) error {
	ix.mut.poisoned = fmt.Errorf("%s: %w", step, err)
	return fmt.Errorf("%w: %w", ErrPoisoned, ix.mut.poisoned)
}

// commitTx makes the transaction durable and publishes the new snapshot.
// On an error up to and including the image write the caller can abort
// cleanly; wal.ErrIndeterminate or a failed cache install poisons the
// index (see the package comment).
//
//nnc:hotpath
func (ix *Index) commitTx(tx *Tx) error {
	m := ix.mut
	cur := ix.snap.Load()
	newEpoch := cur.epoch + 1
	if err := ix.stageSuper(tx, newEpoch); err != nil {
		return err
	}
	images := tx.liveImages()
	if _, err := m.wal.Commit(images); errors.Is(err, wal.ErrIndeterminate) {
		return ix.poison("wal commit", err)
	} else if err != nil {
		//nnc:allow hotpath-alloc: error path
		return fmt.Errorf("diskindex: wal append: %w", err)
	}
	// Durable. Install the images and publish.
	for _, im := range images {
		if err := ix.pool.Put(im.ID, im.Data, im.Type); err != nil {
			return ix.poison("cache install", err)
		}
	}
	//nnc:allow hotpath-alloc: the published snapshot is the commit's product; readers hold it until they drain
	ns := &snapshot{
		epoch: newEpoch, root: ix.tree.Root(), height: ix.tree.Height(),
		size: ix.tree.Len(), store: ix.store.Clone(),
	}
	//nnc:publish the commit point: readers acquire either cur or ns, both complete
	ix.snap.Store(ns)
	//nnc:allow snapshot-lifecycle: retired snapshots park here until every reader of their epoch drains; reclaim() is the release
	m.retired = append(m.retired, cur)
	for _, id := range tx.freed {
		m.pending = append(m.pending, pendingFree{id: id, epoch: cur.epoch})
	}
	m.free = append(m.free, tx.recycle...)
	m.reclaim(newEpoch)
	return nil
}

// maybeCheckpoint runs a checkpoint when the WAL has outgrown its limit.
// Best-effort: a failure leaves the WAL intact (still recoverable) and is
// retried after the next commit.
func (ix *Index) maybeCheckpoint() {
	m := ix.mut
	if m.walLimit <= 0 || m.wal.Size() < m.walLimit {
		return
	}
	if err := ix.checkpointLocked(); err != nil {
		m.ckptFails++
	}
}

// Checkpoint flushes every committed page into the page file, fsyncs it,
// and resets the WAL to a new generation, keeping its file space for the
// next commits. After a clean checkpoint the page file alone holds the
// index.
//
//nnc:allow ctx-flow: Checkpoint is an offline maintenance flush, not a query; interrupting it mid-flush is the crash path recovery handles
func (ix *Index) Checkpoint() error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if _, err := ix.writer(); err != nil {
		return err
	}
	return ix.checkpointLocked()
}

func (ix *Index) checkpointLocked() error {
	m := ix.mut
	if err := ix.pool.Flush(); err != nil {
		return fmt.Errorf("diskindex: checkpoint flush: %w", err)
	}
	if err := m.wal.Checkpoint(); err != nil {
		return fmt.Errorf("diskindex: wal checkpoint: %w", err)
	}
	return nil
}

// Close releases the index: a mutable one checkpoints (unless poisoned),
// trims its WAL to the header and closes it, then the page file under the
// pool is closed — which is all there is to do for a read-only one. An
// index handed a pool (Build, Open) whose caller closes the file itself
// need not be closed.
//
//nnc:allow ctx-flow: Close is shutdown teardown, not a query; nothing upstream has a ctx to thread
func (ix *Index) Close() error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	var first error
	if m := ix.mut; m != nil {
		if m.closed {
			return ErrClosed
		}
		m.closed = true
		if m.poisoned == nil {
			if first = ix.checkpointLocked(); first == nil {
				first = m.wal.Trim()
			}
		}
		if err := m.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := ix.pool.File().Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// --- introspection -----------------------------------------------------------

// Epoch returns the current snapshot's commit epoch (0 on a file that was
// never mutated).
func (ix *Index) Epoch() uint64 { return ix.snap.Load().epoch }

// Mutable reports whether the index accepts Insert/Delete.
func (ix *Index) Mutable() bool { return ix.mut != nil }

// WALRecovery returns the statistics of the recovery pass OpenFileMutable
// ran, or nil (fresh create / read-only index).
func (ix *Index) WALRecovery() *wal.RecoveryStats {
	if ix.mut == nil {
		return nil
	}
	return ix.mut.recovered
}

// WALSize returns the WAL's current valid length in bytes.
func (ix *Index) WALSize() int64 {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.mut == nil {
		return 0
	}
	return ix.mut.wal.Size()
}
