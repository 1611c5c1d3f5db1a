// Package lockcase is the seeded-violation corpus for the lock-balance
// check. The file type's ReadPage/WritePage methods stand in for the
// pager's storage primitives (the check keys on the method name plus the
// defining package's path, which contains "lockbalance").
package lockcase

import "sync"

type file struct{}

func (file) ReadPage(id int, p []byte) error  { return nil }
func (file) WritePage(id int, p []byte) error { return nil }

type store struct {
	mu sync.RWMutex
	f  file
}

func (s *store) Balanced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 0
}

func (s *store) EarlyReturnClean(ok bool) {
	s.mu.Lock()
	if !ok {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

func (s *store) LeakyReturn(ok bool) {
	s.mu.Lock()
	if !ok {
		return //wantlint lock-balance: still locked
	}
	s.mu.Unlock()
}

func (s *store) IOUnderLock(p []byte) error {
	s.mu.Lock()
	err := s.f.ReadPage(1, p) //wantlint lock-balance: while s.mu is held
	s.mu.Unlock()
	return err
}

func (s *store) IOAfterUnlock(p []byte) error {
	s.mu.Lock()
	id := 1
	s.mu.Unlock()
	return s.f.ReadPage(id, p) // lock released before the transfer: clean
}

func (s *store) DeferredClosure() {
	s.mu.RLock()
	defer func() { s.mu.RUnlock() }()
}

func (s *store) BranchLocal(ok bool) {
	if ok {
		s.mu.RLock()
		s.mu.RUnlock()
	}
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *store) FallsOffEnd() {
	s.mu.Lock()
} //wantlint lock-balance: function end reached

// The WAL writer methods stand in for internal/wal's Log: each one writes
// and fsyncs, so holding a lock across them serializes every commit.
func (file) Commit(images [][]byte) (uint64, error) { return 0, nil }
func (file) Checkpoint() error                      { return nil }

func (s *store) WALCommitUnderLock(p []byte) error {
	s.mu.Lock()
	_, err := s.f.Commit([][]byte{p}) //wantlint lock-balance: while s.mu is held
	s.mu.Unlock()
	return err
}

func (s *store) WALCheckpointUnderRLock() error {
	s.mu.RLock()
	err := s.f.Checkpoint() //wantlint lock-balance: while s.mu is held
	s.mu.RUnlock()
	return err
}

func (s *store) WALCheckpointAfterUnlock() error {
	s.mu.Lock()
	s.mu.Unlock()
	return s.f.Checkpoint() // lock released before the fsync: clean
}

// The engine stand-in mirrors the front door's hazard: SearchKCtx may
// walk the disk index, so a cache/coalescer shard lock held across it
// serializes every request hashing to that shard behind a page read.
type engine struct{}

func (engine) SearchKCtx(q, op, k, opts int) (int, error) { return 0, nil }

type cacheShard struct {
	mu      sync.Mutex
	eng     engine
	entries map[string]int
}

func (c *cacheShard) SearchUnderShardLock(q int) (int, error) {
	c.mu.Lock()
	res, err := c.eng.SearchKCtx(q, 0, 1, 0) //wantlint lock-balance: while c.mu is held
	c.mu.Unlock()
	return res, err
}

func (c *cacheShard) LookupThenSearch(key string, q int) (int, error) {
	c.mu.Lock()
	if v, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	res, err := c.eng.SearchKCtx(q, 0, 1, 0) // miss path searches outside the lock: clean
	c.mu.Lock()
	c.entries[key] = res
	c.mu.Unlock()
	return res, err
}

func (c *cacheShard) LeakOnMiss(key string) (int, bool) {
	c.mu.Lock()
	v, ok := c.entries[key]
	if !ok {
		return 0, false //wantlint lock-balance: still locked
	}
	c.mu.Unlock()
	return v, true
}

// --- shard-RPC-under-lock cases (ioMethods: ShardQuery/ProbeHealth) ------

type shardReplica struct{}

func (shardReplica) ShardQuery(body []byte) error { return nil }
func (shardReplica) ProbeHealth() error           { return nil }

type routerShard struct {
	mu  sync.Mutex
	rep shardReplica
}

// RPCUnderLock holds the shard mutex across a full network round trip:
// every concurrent fan-out serializes behind one slow replica.
func (r *routerShard) RPCUnderLock(body []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rep.ShardQuery(body) //wantlint lock-balance: performs storage I/O while
}

// ProbeUnderLock is the same violation through the health probe.
func (r *routerShard) ProbeUnderLock() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rep.ProbeHealth() //wantlint lock-balance: performs storage I/O while
}

// RPCOutsideLock snapshots under the lock and calls outside it: clean.
func (r *routerShard) RPCOutsideLock(body []byte) error {
	r.mu.Lock()
	rep := r.rep
	r.mu.Unlock()
	return rep.ShardQuery(body)
}

// --- control flow the branch-local walk must not step over ---------------

// IOInForCondition runs the transfer on every iteration's test, lock held.
func (s *store) IOInForCondition(p []byte) {
	s.mu.Lock()
	for s.f.ReadPage(1, p) == nil { //wantlint lock-balance: while s.mu is held
	}
	s.mu.Unlock()
}

// IOInSwitchTag runs the transfer to pick a case, lock held.
func (s *store) IOInSwitchTag(p []byte) {
	s.mu.Lock()
	switch s.f.ReadPage(1, p) { //wantlint lock-balance: while s.mu is held
	case nil:
	}
	s.mu.Unlock()
}

// LeakyReturnInLabeledLoop is LeakyReturn behind a label.
func (s *store) LeakyReturnInLabeledLoop(ok bool) {
	s.mu.Lock()
outer:
	for {
		if !ok {
			return //wantlint lock-balance: still locked
		}
		break outer
	}
	s.mu.Unlock()
}

// IOInCaseValue is the same transfer in the if-chain a tagless switch
// spells.
func (s *store) IOInCaseValue(p []byte) {
	s.mu.Lock()
	switch {
	case s.f.ReadPage(1, p) == nil: //wantlint lock-balance: while s.mu is held
	}
	s.mu.Unlock()
}
