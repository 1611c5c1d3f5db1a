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
	res, e, wait := c.lookup(key, epoch)
	if res == nil && wait == nil {
		c.land(e, nil, errStaged, nil, "")
	}
	return res, res != nil
}

func (c *resultCache) put(key Key, res *core.Result, cost int64, shield *core.AnswerShield, _ []int, tag uint64) {
	if shield == nil {
		shield = new(core.AnswerShield)
	}
	if hit, e, wait := c.lookup(key, tag); hit == nil && wait == nil {
		c.land(e, res, nil, &kept{res: res, shield: shield, base: tag, bytes: cost}, "")
	}
}

var errStaged = errors.New("staged lookup") // lands a lookup that keeps nothing
