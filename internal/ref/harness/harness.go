// Package harness regenerates every figure of the paper's evaluation
// (Section 6 and Appendix C): effectiveness (average NN-candidate counts),
// efficiency (average query response time), the progressive property, and
// the filtering ablation. Each figure is addressed by its paper number
// ("10", "11a" … "11f", "12", "13a" … "13f", "14", "16") and printed as an
// aligned text table whose rows mirror the figure's series.
//
// The paper runs 100k objects × 40 instances on a server; the harness
// scales every workload through the Scale knob so the same code runs on a
// laptop (shapes, not absolute numbers, are the reproduction target — see
// EXPERIMENTS.md).
package harness

import (
	"context"
	"fmt"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/uncertain"
)

// Scale selects the workload size.
type Scale int

const (
	// Tiny runs in well under a second per figure; used by tests.
	Tiny Scale = iota
	// Small is the default CLI scale (seconds per figure on one core).
	Small
	// Medium takes minutes per figure (tens of minutes for the dataset
	// figures 10/12, whose NBA stand-in inflates every candidate set).
	Medium
	// Paper is the full Table 2 grid (100k × 40); hours on one core.
	Paper
)

// ParseScale maps a flag value to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("harness: unknown scale %q (tiny|small|medium|paper)", s)
}

// spec holds the scaled Table 2 defaults and sweep grids.
type spec struct {
	N       int
	Md      int
	Hd      float64
	Mq      int
	Hq      float64
	Queries int

	MdSweep []int
	HdSweep []float64
	MqSweep []int
	HqSweep []float64
	NSweep  []int
	DSweep  []int
}

func specFor(sc Scale) spec {
	switch sc {
	case Tiny:
		return spec{
			N: 150, Md: 6, Hd: 400, Mq: 4, Hq: 200, Queries: 3,
			MdSweep: []int{4, 6, 8},
			HdSweep: []float64{100, 300, 500},
			MqSweep: []int{2, 4, 6},
			HqSweep: []float64{100, 300, 500},
			NSweep:  []int{100, 150, 200},
			DSweep:  []int{2, 3},
		}
	case Small:
		return spec{
			N: 1200, Md: 10, Hd: 400, Mq: 8, Hq: 200, Queries: 8,
			MdSweep: []int{5, 10, 15, 20, 25},
			HdSweep: []float64{100, 200, 300, 400, 500},
			MqSweep: []int{4, 8, 12, 16, 20},
			HqSweep: []float64{100, 200, 300, 400, 500},
			NSweep:  []int{400, 800, 1200, 1600, 2400},
			DSweep:  []int{2, 3, 4, 5},
		}
	case Medium:
		return spec{
			N: 10000, Md: 20, Hd: 400, Mq: 15, Hq: 200, Queries: 20,
			MdSweep: []int{10, 20, 30, 40, 50},
			HdSweep: []float64{100, 200, 300, 400, 500},
			MqSweep: []int{5, 10, 15, 20, 25},
			HqSweep: []float64{100, 200, 300, 400, 500},
			NSweep:  []int{2000, 4000, 6000, 8000, 10000},
			DSweep:  []int{2, 3, 4, 5},
		}
	default: // Paper
		return spec{
			N: 100000, Md: 40, Hd: 400, Mq: 30, Hq: 200, Queries: 100,
			MdSweep: []int{20, 40, 60, 80, 100},
			HdSweep: []float64{100, 200, 300, 400, 500},
			MqSweep: []int{10, 20, 30, 40, 50},
			HqSweep: []float64{100, 200, 300, 400, 500},
			NSweep:  []int{200000, 400000, 600000, 800000, 1000000},
			DSweep:  []int{2, 3, 4, 5},
		}
	}
}

// Measurement aggregates one (dataset, operator, config) cell.
type Measurement struct {
	Candidates  float64 // average NN candidate count
	Millis      float64 // average query response time
	Comparisons float64 // average instance comparisons
}

// mustSearch is the harness's one search call: workloads run against
// healthy storage under a background context, so any error is a bug.
func mustSearch(s core.KSearcher, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) *core.Result {
	res, err := s.SearchKCtx(context.Background(), q, op, k, opts)
	if err != nil {
		panic(fmt.Sprintf("harness: workload search failed: %v", err))
	}
	return res
}

// RunWorkload executes the query workload under one operator and filter
// configuration, averaging the Figure 10/12/16 metrics.
func RunWorkload(idx *core.Index, queries []*uncertain.Object, op core.Operator, cfg core.FilterConfig) Measurement {
	var m Measurement
	for _, q := range queries {
		res := mustSearch(idx, q, op, 1, core.SearchOptions{Filters: cfg})
		m.Candidates += float64(len(res.Candidates))
		m.Millis += float64(res.Elapsed) / float64(time.Millisecond)
		m.Comparisons += float64(res.Stats.InstanceComparisons)
	}
	n := float64(len(queries))
	m.Candidates /= n
	m.Millis /= n
	m.Comparisons /= n
	return m
}

// dataset builds a named evaluation dataset plus its query workload.
type namedData struct {
	label   string
	idx     *core.Index
	queries []*uncertain.Object
}

func buildData(label string, p datagen.Params, sp spec, seed int64) namedData {
	ds := datagen.Generate(p)
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err)) // generation guarantees validity
	}
	return namedData{
		label:   label,
		idx:     idx,
		queries: ds.Queries(sp.Queries, sp.Mq, sp.Hq, seed+7777),
	}
}

// evalDatasets returns the Figure 10/12 dataset suite: A-N, E-N, HOUSE,
// CA, NBA, GW and USA stand-ins at the chosen scale.
func evalDatasets(sp spec, seed int64) []namedData {
	base := datagen.Params{N: sp.N, M: sp.Md, EdgeLen: sp.Hd, Seed: seed}
	mk := func(label string, centers datagen.CenterDist, n, clusters int) namedData {
		p := base
		p.Centers = centers
		p.N = n
		if clusters > 0 {
			p.Clusters = clusters
		}
		return buildData(label, p, sp, seed)
	}
	return []namedData{
		mk("A-N", datagen.AntiCorrelated, sp.N, 0),
		mk("E-N", datagen.Independent, sp.N, 0),
		mk("HOUSE", datagen.HouseLike, sp.N, 0),
		mk("CA", datagen.Clustered, sp.N/2, 8),
		mk("NBA", datagen.NBALike, sp.N/4, 0),
		mk("GW", datagen.GWLike, sp.N, 40),
		mk("USA", datagen.Clustered, sp.N*2, 60),
	}
}

// FigureTables computes a figure by paper number and returns its data as
// structured tables (most figures yield one table; the ablation yields two
// per operator).
func FigureTables(name string, sc Scale, seed int64) ([]Table, error) {
	sp := specFor(sc)
	switch name {
	case "10":
		return figDatasets(sp, seed, false)
	case "12":
		return figDatasets(sp, seed, true)
	case "11a", "11b", "11c", "11d", "11e", "11f":
		return figSweep(sp, seed, name[2], false)
	case "13a", "13b", "13c", "13d", "13e", "13f":
		return figSweep(sp, seed, name[2], true)
	case "14":
		return figProgressive(sp, seed)
	case "16":
		return figAblation(sp, seed)
	case "k":
		return figKSkyband(sp, seed)
	case "io":
		return figDiskIO(sp, seed)
	default:
		return nil, fmt.Errorf("harness: unknown figure %q", name)
	}
}

// figKSkyband is an extension experiment beyond the paper: k-NN candidate
// set size as a function of k (the k-skyband generalization). Candidate
// counts must grow monotonically in k under every operator.
func figKSkyband(sp spec, seed int64) ([]Table, error) {
	base := datagen.Params{N: sp.N, M: sp.Md, EdgeLen: sp.Hd, Centers: datagen.AntiCorrelated, Seed: seed}
	data := buildData("A-N", base, sp, seed)
	t := Table{
		Title: fmt.Sprintf("k-NN candidate size vs k (extension; A-N, n=%d, m_d=%d, %d queries)",
			sp.N, sp.Md, sp.Queries),
		Columns: opColumns("k"),
	}
	for _, k := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprint(k)}
		for _, op := range core.Operators {
			var total float64
			for _, q := range data.queries {
				total += float64(len(mustSearch(data.idx, q, op, k, core.SearchOptions{Filters: core.AllFilters}).Candidates))
			}
			row = append(row, fmt.Sprintf("%.1f", total/float64(len(data.queries))))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// Figures lists every supported figure id in paper order, plus the
// extension experiments: "k" (k-NN candidate sizes) and "io"
// (disk-resident page accesses).
func Figures() []string {
	return []string{"10", "11a", "11b", "11c", "11d", "11e", "11f",
		"12", "13a", "13b", "13c", "13d", "13e", "13f", "14", "16", "k", "io"}
}

// figDatasets computes Figure 10 (candidate size) or Figure 12 (response
// time) across the dataset suite.
func figDatasets(sp spec, seed int64, timing bool) ([]Table, error) {
	metric := "avg candidates"
	if timing {
		metric = "avg time (ms)"
	}
	t := Table{
		Title: fmt.Sprintf("%s per dataset (n=%d, m_d=%d, h_d=%g, m_q=%d, h_q=%g, %d queries)",
			metric, sp.N, sp.Md, sp.Hd, sp.Mq, sp.Hq, sp.Queries),
		Columns: opColumns("dataset"),
	}
	for _, data := range evalDatasets(sp, seed) {
		row := []string{data.label}
		for _, op := range core.Operators {
			m := RunWorkload(data.idx, data.queries, op, core.AllFilters)
			row = append(row, formatCell(m, timing))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// opColumns builds a header with the x-axis label followed by the operator
// names.
func opColumns(axis string) []string {
	cols := []string{axis}
	for _, op := range core.Operators {
		cols = append(cols, op.String())
	}
	return cols
}

func formatCell(m Measurement, timing bool) string {
	if timing {
		return fmt.Sprintf("%.2f", m.Millis)
	}
	return fmt.Sprintf("%.1f", m.Candidates)
}

// figSweep renders Figures 11/13: one Table 2 parameter varies, the rest
// stay at their defaults. which is 'a'..'f' for m_d, h_d, m_q, h_q, n, d.
func figSweep(sp spec, seed int64, which byte, timing bool) ([]Table, error) {
	metric := "avg candidates"
	if timing {
		metric = "avg time (ms)"
	}
	type variant struct {
		label string
		idx   *core.Index
		qs    []*uncertain.Object
	}
	var param string
	var variants []variant
	build := func(label string, p datagen.Params, mq int, hq float64) variant {
		ds := datagen.Generate(p)
		idx, err := core.NewIndex(ds.Objects)
		if err != nil {
			panic(err)
		}
		return variant{label: label, idx: idx, qs: ds.Queries(sp.Queries, mq, hq, seed+7777)}
	}
	base := datagen.Params{N: sp.N, M: sp.Md, EdgeLen: sp.Hd, Centers: datagen.AntiCorrelated, Seed: seed}
	switch which {
	case 'a':
		param = "m_d"
		for _, v := range sp.MdSweep {
			p := base
			p.M = v
			variants = append(variants, build(fmt.Sprint(v), p, sp.Mq, sp.Hq))
		}
	case 'b':
		param = "h_d"
		for _, v := range sp.HdSweep {
			p := base
			p.EdgeLen = v
			variants = append(variants, build(fmt.Sprint(v), p, sp.Mq, sp.Hq))
		}
	case 'c':
		param = "m_q"
		shared := build("", base, sp.Mq, sp.Hq)
		ds := datagen.Generate(base)
		for _, v := range sp.MqSweep {
			variants = append(variants, variant{
				label: fmt.Sprint(v),
				idx:   shared.idx,
				qs:    ds.Queries(sp.Queries, v, sp.Hq, seed+7777),
			})
		}
	case 'd':
		param = "h_q"
		shared := build("", base, sp.Mq, sp.Hq)
		ds := datagen.Generate(base)
		for _, v := range sp.HqSweep {
			variants = append(variants, variant{
				label: fmt.Sprint(v),
				idx:   shared.idx,
				qs:    ds.Queries(sp.Queries, sp.Mq, v, seed+7777),
			})
		}
	case 'e':
		param = "n (USA-like)"
		for _, v := range sp.NSweep {
			p := base
			p.N = v
			p.Centers = datagen.Clustered
			p.Clusters = 60
			variants = append(variants, build(fmt.Sprint(v), p, sp.Mq, sp.Hq))
		}
	case 'f':
		param = "d"
		for _, v := range sp.DSweep {
			p := base
			p.Dim = v
			variants = append(variants, build(fmt.Sprint(v), p, sp.Mq, sp.Hq))
		}
	}
	t := Table{
		Title: fmt.Sprintf("%s vs %s (A-N defaults: n=%d, m_d=%d, h_d=%g, m_q=%d, h_q=%g)",
			metric, param, sp.N, sp.Md, sp.Hd, sp.Mq, sp.Hq),
		Columns: opColumns(param),
	}
	for _, v := range variants {
		row := []string{v.label}
		for _, op := range core.Operators {
			m := RunWorkload(v.idx, v.qs, op, core.AllFilters)
			row = append(row, formatCell(m, timing))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// ProgressivePoint is one x-axis position of Figure 14.
type ProgressivePoint struct {
	Fraction   float64 // fraction of candidates returned
	TimeFrac   float64 // fraction of total response time elapsed
	AvgQuality float64 // avg #objects dominated by the returned candidates
}

// Progressive measures the progressive property of Algorithm 1 under P-SD
// (Figure 14): for each decile of returned candidates, the fraction of the
// total query time elapsed and the average candidate quality. Each query
// runs three times and the fastest run is measured: a run the machine
// interrupts stretches some of its intervals, not its emission order.
func Progressive(idx *core.Index, queries []*uncertain.Object) []ProgressivePoint {
	const buckets = 10
	agg := make([]ProgressivePoint, buckets)
	for _, q := range queries {
		var res *core.Result
		var emits []time.Duration
		for range 3 {
			var run []time.Duration
			r := mustSearch(idx, q, core.PSD, 1, core.SearchOptions{
				Filters:     core.AllFilters,
				OnCandidate: func(c core.Candidate) { run = append(run, c.Elapsed) },
			})
			if res == nil || r.Elapsed < res.Elapsed {
				res, emits = r, run
			}
		}
		if len(emits) == 0 {
			continue
		}
		total := res.Elapsed
		// Quality: how many (sampled) objects each candidate dominates.
		qual := candidateQuality(idx, q, res)
		for b := 0; b < buckets; b++ {
			k := (b + 1) * len(emits) / buckets
			if k == 0 {
				k = 1
			}
			agg[b].Fraction += float64(k) / float64(len(emits))
			agg[b].TimeFrac += float64(emits[k-1]) / float64(total)
			var qsum float64
			for i := 0; i < k; i++ {
				qsum += qual[i]
			}
			agg[b].AvgQuality += qsum / float64(k)
		}
	}
	n := float64(len(queries))
	for b := range agg {
		agg[b].Fraction /= n
		agg[b].TimeFrac /= n
		agg[b].AvgQuality /= n
	}
	return agg
}

// candidateQuality returns, per candidate in emission order, the number of
// (sampled) objects it dominates under P-SD.
func candidateQuality(idx *core.Index, q *uncertain.Object, res *core.Result) []float64 {
	checker := core.NewChecker(q, core.PSD, core.AllFilters)
	objs := idx.Objects()
	// Sample at most 150 objects to keep the metric affordable.
	stride := 1
	if len(objs) > 150 {
		stride = len(objs) / 150
	}
	qual := make([]float64, len(res.Candidates))
	for i, c := range res.Candidates {
		count := 0
		for j := 0; j < len(objs); j += stride {
			if objs[j].ID() == c.Object.ID() {
				continue
			}
			if checker.Dominates(c.Object, objs[j]) {
				count++
			}
		}
		qual[i] = float64(count * stride)
	}
	return qual
}

// progressiveData is Figure 14's dataset: USA-like, twice the scale's n.
func progressiveData(sp spec, seed int64) namedData {
	p := datagen.Params{N: sp.N * 2, M: sp.Md, EdgeLen: sp.Hd,
		Centers: datagen.Clustered, Clusters: 60, Seed: seed}
	return buildData("USA", p, sp, seed)
}

func figProgressive(sp spec, seed int64) ([]Table, error) {
	data := progressiveData(sp, seed)
	points := Progressive(data.idx, data.queries)
	t := Table{
		Title:   fmt.Sprintf("progressive property under PSD (USA-like, n=%d, %d queries)", data.idx.Len(), sp.Queries),
		Columns: []string{"%candidates", "%time", "avg quality (#dominated)"},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%.0f%%", pt.Fraction*100),
			fmt.Sprintf("%.1f%%", pt.TimeFrac*100),
			fmt.Sprintf("%.1f", pt.AvgQuality),
		)
	}
	return []Table{t}, nil
}

// AblationConfigs lists the Figure 16 filter stacks in presentation order:
// brute force, each technique alone, and both (the paper's LGP without its
// L, which is deleted: EXPERIMENTS.md). With two techniques, All with one
// left out is the other alone.
func AblationConfigs() []struct {
	Label string
	Cfg   core.FilterConfig
} {
	return []struct {
		Label string
		Cfg   core.FilterConfig
	}{
		{"BF", core.FilterConfig{}},
		{"P", core.FilterConfig{StatPruning: true}},
		{"G", core.FilterConfig{Geometric: true}},
		{"All", core.AllFilters},
	}
}

// figAblation is Figure 16 as wall time — what a filter costs or saves is
// what it does to a query — with the paper's metric, instance comparisons, in
// a second table per operator. A cell is the faster of two passes over the
// queries, so that no stack is charged for what the first pass warms (the
// pooled search scratch, the CPU caches).
func figAblation(sp spec, seed int64) ([]Table, error) {
	ops := []core.Operator{core.SSD, core.SSSD, core.PSD}
	cfgs := AblationConfigs()
	header := func(op core.Operator, metric string) Table {
		t := Table{
			Title: fmt.Sprintf("[%s] filtering ablation: %s vs m_d (HOUSE-like, n=%d, m_q=%d, %d queries)",
				op, metric, sp.N, sp.Mq, sp.Queries),
			Columns: []string{"m_d"},
		}
		for _, c := range cfgs {
			t.Columns = append(t.Columns, c.Label)
		}
		return t
	}
	var millis, comparisons []Table
	for _, op := range ops {
		millis = append(millis, header(op, "avg time (ms)"))
		comparisons = append(comparisons, header(op, "avg instance comparisons"))
	}
	for _, md := range sp.MdSweep {
		p := datagen.Params{N: sp.N, M: md, EdgeLen: sp.Hd, Centers: datagen.HouseLike, Seed: seed}
		data := buildData("HOUSE", p, sp, seed)
		for i, op := range ops {
			ms, counts := []string{fmt.Sprint(md)}, []string{fmt.Sprint(md)}
			for _, c := range cfgs {
				m := RunWorkload(data.idx, data.queries, op, c.Cfg)
				if again := RunWorkload(data.idx, data.queries, op, c.Cfg); again.Millis < m.Millis {
					m = again
				}
				ms = append(ms, fmt.Sprintf("%.2f", m.Millis))
				counts = append(counts, fmt.Sprintf("%.0f", m.Comparisons))
			}
			millis[i].AddRow(ms...)
			comparisons[i].AddRow(counts...)
		}
	}
	return append(millis, comparisons...), nil
}
