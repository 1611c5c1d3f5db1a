// Package snapcase is the seeded-violation corpus for the
// snapshot-lifecycle check. The index type's acquire/release pair stands
// in for the refcounted epoch snapshots of the mutable disk index (the
// check keys on the acquire/release names plus the snapshot result type).
// Regression notes: the early-return leak mirrors the shape SearchKCtx
// would take if its defer were refactored away; the field store mirrors
// the writer's retirement parking, which carries a reviewed allow in real
// code.
package snapcase

type snapshot struct {
	refs int
}

type index struct {
	cur *snapshot
}

type registry struct {
	last *snapshot
}

func (ix *index) acquire() *snapshot  { return ix.cur }
func (ix *index) release(s *snapshot) {}

// Balanced is the canonical reader shape.
func (ix *index) Balanced() int {
	snap := ix.acquire()
	defer ix.release(snap)
	return snap.refs
}

// ExplicitRelease releases on both paths without defer.
func (ix *index) ExplicitRelease(ok bool) int {
	snap := ix.acquire()
	if !ok {
		ix.release(snap)
		return 0
	}
	n := snap.refs
	ix.release(snap)
	return n
}

// EarlyReturnLeak forgets the release on the error path.
func (ix *index) EarlyReturnLeak(ok bool) int {
	snap := ix.acquire()
	if !ok {
		return 0 //wantlint snapshot-lifecycle: still acquired
	}
	ix.release(snap)
	return 1
}

// FallOffEndLeak never releases at all.
func (ix *index) FallOffEndLeak() {
	snap := ix.acquire()
	_ = snap.refs //wantlint-file snapshot-lifecycle: function end reached with snapshot snap
}

// DroppedAcquire discards the result: the refcount never drops.
func (ix *index) DroppedAcquire() {
	ix.acquire() //wantlint snapshot-lifecycle: discarded
}

// OwnershipTransfer hands the snapshot to the caller, which is legal —
// the caller inherits the release obligation.
func (ix *index) OwnershipTransfer() *snapshot {
	snap := ix.acquire()
	return snap
}

// FieldStore parks a snapshot in a long-lived struct past its release.
func (ix *index) FieldStore(reg *registry) {
	snap := ix.acquire()
	defer ix.release(snap)
	reg.last = snap //wantlint snapshot-lifecycle: stored in field last
}

// ChannelSend lets the receiver outlive the release.
func (ix *index) ChannelSend(ch chan *snapshot) {
	snap := ix.acquire()
	defer ix.release(snap)
	ch <- snap //wantlint snapshot-lifecycle: sent on a channel
}

// GoCapture leaks the snapshot into a goroutine that may run after the
// release.
func (ix *index) GoCapture(done func()) {
	snap := ix.acquire()
	defer ix.release(snap)
	go func() {
		_ = snap.refs //wantlint snapshot-lifecycle: closure captures snapshot snap
		done()
	}()
}

// GoArg passes the snapshot to a goroutine by argument.
func (ix *index) GoArg(use func(*snapshot)) {
	snap := ix.acquire()
	defer ix.release(snap)
	go use(snap) //wantlint snapshot-lifecycle: passed to a go statement
}

// retiredParking mirrors the writer-side retirement list: appending to a
// snapshot-typed field is an escape, and the sanctioned real-code site
// carries a reviewed allow exactly like this one.
type retiredParking struct {
	retired []*snapshot
}

func (p *retiredParking) Park(ix *index) {
	snap := ix.acquire()
	defer ix.release(snap)
	//nnc:allow snapshot-lifecycle: corpus demo of the reviewed writer-side retirement parking
	p.retired = append(p.retired, snap)
}

// Shrink reslices the same field: no new reference escapes.
func (p *retiredParking) Shrink() {
	p.retired = p.retired[1:]
}

// UnparkedStore is the same shape without the review.
func (p *retiredParking) UnparkedStore(ix *index) {
	snap := ix.acquire()
	defer ix.release(snap)
	p.retired = append(p.retired, snap) //wantlint snapshot-lifecycle: stored in field retired
}

// pinned is a package-level snapshot: pinned forever, epoch never
// reclaims.
var pinned *snapshot //wantlint snapshot-lifecycle: package-level pinned

// LabeledLoopLeak is EarlyReturnLeak behind a label.
func (ix *index) LabeledLoopLeak(ok bool) int {
outer:
	for {
		snap := ix.acquire()
		if !ok {
			return 0 //wantlint snapshot-lifecycle: still acquired
		}
		ix.release(snap)
		break outer
	}
	return 1
}
