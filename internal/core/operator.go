// Package core implements the paper's primary contribution: the spatial
// dominance operators S-SD, SS-SD, P-SD, F-SD and F⁺-SD (Sections 2, 4 and
// 5.1) together with their pruning/validation filters, and the progressive
// NN-candidate computation of Algorithm 1 (Section 5.2).
//
// The operators form the cover chain F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD
// (Theorem 2): a stronger operator dominates fewer pairs and therefore
// yields more NN candidates, but covers more NN-function families. S-SD is
// optimal w.r.t. N1, SS-SD w.r.t. N1∪N2, and P-SD w.r.t. N1∪N2∪N3
// (Theorems 5–7); F-SD is correct but not complete (Theorem 8).
package core

import (
	"fmt"
	"strings"
)

// Operator selects a spatial dominance operator.
type Operator int

const (
	// SSD is stochastic spatial dominance: U_Q ≤st V_Q (Definition 2).
	// Optimal w.r.t. the all-pairs family N1.
	SSD Operator = iota
	// SSSD is strict stochastic spatial dominance: U_q ≤st V_q for every
	// query instance q (Definition 3). Optimal w.r.t. N1 ∪ N2.
	SSSD
	// PSD is peer spatial dominance: a match between U and V whose every
	// tuple satisfies t.u ⪯Q t.v (Definition 5). Optimal w.r.t. N1∪N2∪N3.
	PSD
	// FSD is full spatial dominance at instance level: every instance of U
	// is at least as close as every instance of V to every query instance.
	// Correct for N1∪N2∪N3 but not complete (Theorem 8).
	FSD
	// FPlusSD is the MBR-level baseline of [16]: F-SD evaluated on the
	// objects' minimum bounding rectangles only.
	FPlusSD
)

// Operators lists every operator in cover order (weakest dominance
// condition — fewest candidates — first).
var Operators = []Operator{SSD, SSSD, PSD, FSD, FPlusSD}

// String returns the name used in the paper's experiment section.
func (op Operator) String() string {
	switch op {
	case SSD:
		return "SSD"
	case SSSD:
		return "SSSD"
	case PSD:
		return "PSD"
	case FSD:
		return "FSD"
	case FPlusSD:
		return "F+SD"
	default:
		return fmt.Sprintf("Operator(%d)", int(op))
	}
}

// ParseOperator inverts String: it maps an operator name to its Operator,
// ignoring case and surrounding space. "FPLUSSD" is accepted for F+SD where
// a plus sign is awkward to type.
func ParseOperator(s string) (Operator, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SSD":
		return SSD, nil
	case "SSSD":
		return SSSD, nil
	case "PSD":
		return PSD, nil
	case "FSD":
		return FSD, nil
	case "F+SD", "FPLUSSD":
		return FPlusSD, nil
	}
	return 0, fmt.Errorf("unknown operator %q", s)
}

// Covers reports whether op2 covers op (op ⊂ op2): dominance under op
// implies dominance under op2, per Theorem 2. Every operator covers itself.
func (op Operator) Covers(other Operator) bool {
	rank := func(o Operator) int {
		switch o {
		case FPlusSD:
			return 0
		case FSD:
			return 1
		case PSD:
			return 2
		case SSSD:
			return 3
		case SSD:
			return 4
		}
		return -1
	}
	return rank(other) <= rank(op)
}

// FilterConfig toggles the Section 5.1 filtering techniques, enabling the
// Appendix C (Figure 16) ablation. The zero value is the brute-force
// configuration ("BF"); AllFilters enables everything ("All").
//
// The paper's third technique, level-by-level pruning on the objects'
// local R-trees ("L"), is deleted: at every object size measured it cost
// more than the exact tests it stood in front of (EXPERIMENTS.md).
type FilterConfig struct {
	// StatPruning enables statistic-based pruning (min/mean/max of the
	// distance distributions, Theorem 11) and cover-based pruning ("P").
	StatPruning bool
	// Geometric enables the geometric techniques ("G"): cover validation
	// on MBRs (Theorem 4) applied to object entries before they are read,
	// with the band's stopping radius. The paper's third one, restricting
	// dominance tests to the query's convex hull, is not kept: it holds in
	// real arithmetic, not in the float distances the verdicts compare,
	// where it changed P-SD verdicts (DESIGN §7).
	Geometric bool
}

// AllFilters enables every filtering technique (the "All" configuration).
var AllFilters = FilterConfig{
	StatPruning: true,
	Geometric:   true,
}

// Stats counts the work performed by dominance checking; used by the
// Figure 16 ablation and the efficiency experiments.
type Stats struct {
	// InstanceComparisons counts the instance distances evaluated (once per
	// object, when it is summarised), the atoms consumed by stochastic-order
	// scans and by P-SD's sweeps of the sorted runs, and the components of
	// the rectangle tests (entries, F+SD's MBRs) — the metric reported by
	// Figure 16. No rung compares instances pair by pair any more, so under
	// P-SD the count is not comparable with one taken before PR 26.
	InstanceComparisons int64
	// DominanceChecks counts top-level Dominates invocations.
	DominanceChecks int64
	// MBRValidations is retired and always 0: the checks' MBR rung is
	// deleted (EXPERIMENTS.md). The field stays only because the frozen
	// bench/wl_mem.go prints it, and leaves with the next change to bench/.
	MBRValidations int64
	// CoverValidations counts the P-SD checks that the match witness
	// validated on the summary, before the exact test (rung 7,
	// Checker.matchValidate); the other operators have no rung 7.
	CoverValidations int64
	// SphereValidations is retired and always 0: the bounding-sphere
	// validation is deleted (EXPERIMENTS.md). The field stays only because
	// the frozen bench/wl_mem.go prints it, and leaves with the next
	// benchmark PR.
	SphereValidations int64
	// StatPrunes counts checks decided by statistic-based and cover-based
	// pruning: the three statistics of U_Q, the three of some U_q, or (P-SD)
	// a per-query-instance stochastic scan that failed during the sweep.
	StatPrunes int64
	// ScanPrunes is the subset of StatPrunes that needed a scan: the
	// statistics were ordered and a per-query-instance scan was not.
	ScanPrunes int64
	// IsolationPrunes counts P-SD checks refuted before the sweep because an
	// instance of positive mass has no partner under ⪯Q (rung 4a, Hall's
	// condition on one instance). They are in no other counter but
	// DominanceChecks. Without StatPruning the exact test finds the same
	// pairs on its rows and counts them nowhere else either.
	IsolationPrunes int64
	// LevelDecisions is retired and always 0: the level-by-level rung is
	// deleted (EXPERIMENTS.md). The field stays only because the frozen
	// bench/wl_mem.go prints it, and leaves with the next change to bench/.
	LevelDecisions int64
	// FlowSolves counts max-flow invocations (P-SD).
	FlowSolves int64
	// HeapPops and EntryPrunes instrument Algorithm 1: items popped off the
	// search heap, and tree nodes discarded because k candidates dominate
	// their MBR — by their F-SD rows or, under S-SD, by the mass test
	// against the MBR's near distribution (band.dominatesRect). The search
	// stops at the band's radius with every item left dominated, so
	// HeapPops counts only the items before that point, while the nodes
	// left unpopped are in EntryPrunes.
	HeapPops    int64
	EntryPrunes int64
	// ObjectPrunes counts object entries discarded by the same test, before
	// the object was resolved, whether popped or left in the heap at the
	// radius. Object entries handed out by the backend = ObjectPrunes +
	// examined objects (+ entries skipped as unreadable in a degraded search).
	ObjectPrunes int64
	// MassPrunes is the subset of EntryPrunes and ObjectPrunes whose k-th
	// dominator came from S-SD's mass test: the F-SD rows alone found fewer
	// than k (band.massDominates).
	MassPrunes int64
	// BucketDecisions counts the S-SD checks of two objects that the mass
	// rung decided on bucket masses, with no sorted run (rung 1a,
	// Checker.ssd).
	BucketDecisions int64
	// MixtureBuilds counts the U_Q built out of sorted runs for a scan
	// (Checker.distQ): one per object at most.
	MixtureBuilds int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.InstanceComparisons += other.InstanceComparisons
	s.DominanceChecks += other.DominanceChecks
	s.CoverValidations += other.CoverValidations
	s.StatPrunes += other.StatPrunes
	s.ScanPrunes += other.ScanPrunes
	s.IsolationPrunes += other.IsolationPrunes
	s.FlowSolves += other.FlowSolves
	s.HeapPops += other.HeapPops
	s.EntryPrunes += other.EntryPrunes
	s.ObjectPrunes += other.ObjectPrunes
	s.MassPrunes += other.MassPrunes
	s.BucketDecisions += other.BucketDecisions
	s.MixtureBuilds += other.MixtureBuilds
}
