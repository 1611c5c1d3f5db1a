package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// rawObj is a quick-generated object on a small integer grid — integer
// coordinates deliberately produce duplicate instances, ties and identical
// distributions, the edge cases the eps handling and ≠ side conditions
// must survive.
type rawObj struct {
	Xs [4]uint8
	Ys [4]uint8
	N  uint8
}

func (r rawObj) object(id int) *uncertain.Object {
	n := int(r.N%4) + 1
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Point{float64(r.Xs[i] % 16), float64(r.Ys[i] % 16)}
	}
	return uncertain.MustNew(id, pts, nil)
}

var quickCfg = &quick.Config{MaxCount: 600, Rand: rand.New(rand.NewSource(999))}

// The cover chain F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD holds on arbitrary inputs,
// including tie-heavy integer grids.
func TestQuickCoverChain(t *testing.T) {
	f := func(ru, rv, rq rawObj) bool {
		q := rq.object(0)
		u := ru.object(1)
		v := rv.object(2)
		psd := NewChecker(q, PSD, AllFilters).Dominates(u, v)
		sssd := NewChecker(q, SSSD, AllFilters).Dominates(u, v)
		ssd := NewChecker(q, SSD, AllFilters).Dominates(u, v)
		// (F-SD is omitted here: it carries no ≠ side condition, so on
		// tie-heavy grids F-SD can hold for identically-distributed pairs
		// that P-SD correctly rejects; the continuous-input cover-chain
		// test covers the F-SD ⇒ P-SD implication.)
		if psd && !sssd {
			return false
		}
		if sssd && !ssd {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// No object ever dominates itself (the ≠ side condition) under the three
// proposed operators.
func TestQuickIrreflexive(t *testing.T) {
	f := func(ru, rq rawObj) bool {
		q := rq.object(0)
		u := ru.object(1)
		twin := ru.object(2)
		for _, op := range []Operator{SSD, SSSD, PSD} {
			c := NewChecker(q, op, AllFilters)
			if c.Dominates(u, twin) || c.Dominates(twin, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Filter configurations never change a verdict, even on degenerate
// tie-heavy inputs.
func TestQuickFilterAgreement(t *testing.T) {
	f := func(ru, rv, rq rawObj) bool {
		q := rq.object(0)
		u := ru.object(1)
		v := rv.object(2)
		for _, op := range Operators {
			base := NewChecker(q, op, FilterConfig{}).Dominates(u, v)
			for _, cfg := range []FilterConfig{
				{StatPruning: true}, {Geometric: true}, {LevelByLevel: true}, AllFilters,
			} {
				if NewChecker(q, op, cfg).Dominates(u, v) != base {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
