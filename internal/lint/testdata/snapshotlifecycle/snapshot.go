// Package snapcase is the seeded-violation corpus for the
// snapshot-lifecycle check. The index type's pinned method stands in for
// diskindex.Index.pinned: the snapshot is the closure's for exactly the
// call, and every way of keeping it longer is an escape (the check keys on
// the snapshot type). Regression note: the field store mirrors the
// writer's retirement parking, which carries a reviewed allow in real
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

func (ix *index) pinned(fn func(*snapshot)) { fn(ix.cur) }

// Reader is the canonical shape: the snapshot is used and let go.
func (ix *index) Reader() (n int) {
	ix.pinned(func(snap *snapshot) { n = snap.refs })
	return n
}

// FieldStore parks a snapshot in a long-lived struct past its pin.
func (ix *index) FieldStore(reg *registry) {
	ix.pinned(func(snap *snapshot) {
		reg.last = snap //wantlint snapshot-lifecycle: stored in field last
	})
}

// ChannelSend lets the receiver outlive the pin.
func (ix *index) ChannelSend(ch chan *snapshot) {
	ix.pinned(func(snap *snapshot) {
		ch <- snap //wantlint snapshot-lifecycle: sent on a channel
	})
}

// GoCapture leaks the snapshot into a goroutine that may run after the
// pin drops.
func (ix *index) GoCapture(done func()) {
	ix.pinned(func(snap *snapshot) {
		go func() {
			_ = snap.refs //wantlint snapshot-lifecycle: closure captures snapshot snap
			done()
		}()
	})
}

// GoArg passes the snapshot to a goroutine by argument.
func (ix *index) GoArg(use func(*snapshot)) {
	ix.pinned(func(snap *snapshot) {
		go use(snap) //wantlint snapshot-lifecycle: passed to a go statement
	})
}

// retiredParking mirrors the writer-side retirement list: appending to a
// snapshot-typed field is an escape, and the sanctioned real-code site
// carries a reviewed allow exactly like this one.
type retiredParking struct {
	retired []*snapshot
}

func (p *retiredParking) Park(cur *snapshot) {
	//nnc:allow snapshot-lifecycle: corpus demo of the reviewed writer-side retirement parking
	p.retired = append(p.retired, cur)
}

// Shrink reslices the same field: no new reference escapes.
func (p *retiredParking) Shrink() {
	p.retired = p.retired[1:]
}

// UnparkedStore is the same shape without the review.
func (p *retiredParking) UnparkedStore(cur *snapshot) {
	p.retired = append(p.retired, cur) //wantlint snapshot-lifecycle: stored in field retired
}

// held is a package-level snapshot: reachable forever, its epoch never
// reclaims.
var held *snapshot //wantlint snapshot-lifecycle: package-level held
