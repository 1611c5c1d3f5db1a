package harness

import (
	"fmt"
	"io"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/ref/nnfunc"
)

// VerifyShapes programmatically checks the qualitative claims of the
// paper's evaluation summary (Appendix C.2) against a fresh run at the
// given scale, writing one PASS/FAIL line per claim. It returns an error
// if any claim fails — a self-verifying reproduction.
//
// Claims checked:
//
//  1. candidate sets nest along SSD ⊆ SSSD ⊆ PSD ⊆ FSD ⊆ F+SD per query;
//  2. PSD yields (weakly) fewer candidates than FSD and F+SD on every
//     dataset, with a strict win on at least half of them;
//  3. FSD/F+SD candidate counts grow with the object extent h_d while the
//     proposed operators stay comparatively flat;
//  4. the full filter stack never does more instance comparisons than
//     brute force, and saves at least 2× for PSD;
//  5. the progressive search emits at least half of its candidates within
//     the first 60% of the response time (on Small's USA-like data at
//     every scale);
//  6. every implemented NN function's top object is inside the matching
//     optimal operator's candidate set.
func VerifyShapes(sc Scale, seed int64, w io.Writer) error {
	sp := specFor(sc)
	failures := 0
	check := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "[%s] %-34s %s\n", status, name, detail)
	}

	// --- claims 1, 2, 6 on the dataset suite --------------------------------
	nestOK := true
	psdWins := 0
	psdStrict := 0
	nnMissing := 0
	suites := nnfunc.AllSuites()
	famOps := map[nnfunc.Family][]core.Operator{
		nnfunc.N1: {core.SSD, core.SSSD, core.PSD, core.FSD, core.FPlusSD},
		nnfunc.N3: {core.PSD, core.FSD, core.FPlusSD},
	}
	datasets := evalDatasets(sp, seed)
	counts := map[string]map[core.Operator]float64{}
	for _, data := range datasets {
		counts[data.label] = map[core.Operator]float64{}
		for _, q := range data.queries {
			var prev map[int]bool
			for _, op := range core.Operators {
				res := data.idx.Search(q, op)
				counts[data.label][op] += float64(len(res.Candidates))
				cur := map[int]bool{}
				for _, id := range res.IDs() {
					cur[id] = true
				}
				if prev != nil {
					for id := range prev {
						if !cur[id] {
							nestOK = false
						}
					}
				}
				prev = cur
			}
		}
		if counts[data.label][core.PSD] <= counts[data.label][core.FSD] &&
			counts[data.label][core.PSD] <= counts[data.label][core.FPlusSD] {
			psdWins++
			if counts[data.label][core.PSD] < counts[data.label][core.FPlusSD] {
				psdStrict++
			}
		}
		// Claim 6 on the first query of each dataset (N2 functions are
		// quadratic; restrict to the N1/N3 suites here).
		q := data.queries[0]
		objs := data.idx.Objects()
		candidates := map[core.Operator]map[int]bool{}
		for fam, ops := range famOps {
			for _, f := range suites[fam] {
				nn := nnfunc.NN(objs, q, f)
				for _, op := range ops {
					set, ok := candidates[op]
					if !ok {
						set = map[int]bool{}
						for _, id := range data.idx.Search(q, op).IDs() {
							set[id] = true
						}
						candidates[op] = set
					}
					if !set[nn.ID()] {
						nnMissing++
					}
				}
			}
		}
	}
	check("candidate nesting", nestOK, fmt.Sprintf("%d datasets × %d queries", len(datasets), sp.Queries))
	check("PSD beats F-SD baselines", psdWins == len(datasets) && psdStrict*2 >= len(datasets),
		fmt.Sprintf("PSD ≤ on %d/%d, strict < F+SD on %d", psdWins, len(datasets), psdStrict))
	check("function NN ∈ candidates", nnMissing == 0, fmt.Sprintf("%d misses", nnMissing))

	// --- claim 3: h_d sensitivity -------------------------------------------
	growth := func(op core.Operator) float64 {
		lo := hdCandidates(sp, seed, sp.HdSweep[0], op)
		hi := hdCandidates(sp, seed, sp.HdSweep[len(sp.HdSweep)-1], op)
		if lo == 0 {
			lo = 1
		}
		return hi / lo
	}
	gF := growth(core.FPlusSD)
	gS := growth(core.SSD)
	check("h_d sensitivity", gF > gS,
		fmt.Sprintf("F+SD grows %.1f×, SSD %.1f× across h_d sweep", gF, gS))

	// --- claim 4: filter ablation --------------------------------------------
	p := datagen.Params{N: sp.N, M: sp.Md, EdgeLen: sp.Hd, Centers: datagen.HouseLike, Seed: seed}
	data := buildData("HOUSE", p, sp, seed)
	ablationOK := true
	var psdRatio float64
	for _, op := range []core.Operator{core.SSD, core.SSSD, core.PSD} {
		bf := RunWorkload(data.idx, data.queries, op, core.FilterConfig{})
		all := RunWorkload(data.idx, data.queries, op, core.AllFilters)
		if all.Comparisons > bf.Comparisons {
			ablationOK = false
		}
		if op == core.PSD && all.Comparisons > 0 {
			psdRatio = bf.Comparisons / all.Comparisons
		}
	}
	check("filters never hurt", ablationOK, "BF vs All comparisons")
	check("PSD filter savings >= 2x", psdRatio >= 2, fmt.Sprintf("%.1f×", psdRatio))

	// --- claim 5: progressiveness --------------------------------------------
	// On Small's USA-like data whatever the scale: on tiny data the search is
	// mostly fixed setup, and its first candidate alone arrives at half the
	// time, which measures the setup, not the emission order.
	usa := progressiveData(specFor(Small), seed)
	points := Progressive(usa.idx, usa.queries)
	progOK := false
	for _, pt := range points {
		if pt.Fraction >= 0.5 && pt.TimeFrac <= 0.6 {
			progOK = true
			break
		}
	}
	check("progressive emission", progOK, "≥50% of candidates within 60% of time")

	if failures > 0 {
		return fmt.Errorf("harness: %d shape checks failed", failures)
	}
	fmt.Fprintln(w, "all shape checks passed")
	return nil
}

// hdCandidates measures the average F+SD/SSD candidate count at one h_d.
func hdCandidates(sp spec, seed int64, hd float64, op core.Operator) float64 {
	p := datagen.Params{N: sp.N, M: sp.Md, EdgeLen: hd, Centers: datagen.AntiCorrelated, Seed: seed}
	ds := datagen.Generate(p)
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		panic(err)
	}
	queries := ds.Queries(sp.Queries, sp.Mq, sp.Hq, seed+7777)
	var total float64
	for _, q := range queries {
		total += float64(len(idx.Search(q, op).Candidates))
	}
	return total / float64(len(queries))
}
