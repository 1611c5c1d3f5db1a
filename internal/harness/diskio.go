package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
)

// figDiskIO is an extension experiment: the disk-resident index's page
// accesses per query (buffer pool hits + misses and physical reads) per
// operator, on the default A-N dataset with a deliberately small buffer
// pool. It makes the I/O component of the paper's response times explicit.
func figDiskIO(sp spec, seed int64) ([]Table, error) {
	ds := datagen.Generate(datagen.Params{
		N: sp.N, M: sp.Md, EdgeLen: sp.Hd, Centers: datagen.AntiCorrelated, Seed: seed,
	})
	dir, err := os.MkdirTemp("", "spatialdom-io-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pf, err := pager.Create(filepath.Join(dir, "idx.pg"), pager.PageSize)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	// A pool of 64 frames (256 KiB) forces real misses at every scale.
	built, err := diskindex.Build(pager.NewPool(pf, 64), ds.Objects)
	if err != nil {
		return nil, err
	}
	super := built.SuperPage()
	queries := ds.Queries(sp.Queries, sp.Mq, sp.Hq, seed+7777)

	t := Table{
		Title: fmt.Sprintf("disk-resident search I/O per query (extension; A-N, n=%d, %d-frame pool, %d-byte pages)",
			sp.N, 64, pager.PageSize),
		Columns: []string{"operator", "page accesses", "physical reads", "pool hit rate", "candidates"},
	}
	for _, op := range core.Operators {
		// A cold pool per operator keeps the rows comparable.
		idx, err := diskindex.Open(pager.NewPool(pf, 64), super)
		if err != nil {
			return nil, err
		}
		var accesses, reads, hits, cands float64
		for _, q := range queries {
			res, err := idx.SearchKCtx(context.Background(), q, op, 1, core.SearchOptions{Filters: core.AllFilters})
			if err != nil {
				return nil, err
			}
			accesses += float64(res.IO.Hits + res.IO.Misses)
			reads += float64(res.IO.Reads)
			hits += float64(res.IO.Hits)
			cands += float64(len(res.Candidates))
		}
		n := float64(len(queries))
		rate := 0.0
		if accesses > 0 {
			rate = hits / accesses * 100
		}
		t.AddRow(op.String(),
			fmt.Sprintf("%.0f", accesses/n),
			fmt.Sprintf("%.0f", reads/n),
			fmt.Sprintf("%.0f%%", rate),
			fmt.Sprintf("%.1f", cands/n),
		)
	}
	return []Table{t}, nil
}
