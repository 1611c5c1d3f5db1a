package front

import (
	"errors"

	"spatialdom/internal/core"
)

// get and put stage the table the way the door drives it — a lookup, and a
// leader landing its answer — for tests that place entries directly.
// Deletes read a kept answer's IDs from its candidates, so put's ids are
// only the caller's note of them.

func (c *resultCache) get(key Key, epoch uint64) (*core.Result, bool) {
	res, e, leader := c.lookup(key, epoch)
	if leader {
		c.land(e, nil, errStaged, nil, 0, "")
	}
	return res, res != nil
}

func (c *resultCache) put(key Key, res *core.Result, cost int64, shield *core.AnswerShield, _ []int, tag uint64) {
	if shield == nil {
		shield = new(core.AnswerShield)
	}
	if _, e, leader := c.lookup(key, tag); leader {
		c.land(e, res, nil, shield, cost, "")
	}
}

var errStaged = errors.New("staged lookup") // lands a lookup that keeps nothing
