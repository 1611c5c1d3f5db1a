// Command nncshard splits a dataset into spatially coherent shards for
// the scatter-gather tier.
//
// Usage:
//
//	nncshard -n=20000 -m=10 -shards=4 -out=shards/        # generated dataset
//	nncshard -input=objects.csv -shards=8 -out=shards/    # CSV dataset
//
// The split is the same STR (sort-tile-recursive) ordering the R-tree
// bulk loader uses: objects whose MBRs are spatial neighbors land in the
// same shard, so a query's expansion sphere intersects few shards and
// per-shard k-skybands stay small. Each shard is written as
// shard-NNN.csv in the dataio format, plus a manifest.json recording the
// shard count, per-shard object counts and the source parameters — the
// nncserver -router mode and ops tooling read it to sanity-check a
// deployment against the split that produced it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"spatialdom/internal/cluster"
	"spatialdom/internal/datagen"
	"spatialdom/internal/dataio"
	"spatialdom/internal/uncertain"
)

// manifest is the sidecar written next to the shard files.
type manifest struct {
	Shards  int      `json:"shards"`
	Objects int      `json:"objects"`
	Dim     int      `json:"dim"`
	Source  string   `json:"source"`
	Files   []string `json:"files"`
	Counts  []int    `json:"counts"`
}

func main() {
	var (
		n      = flag.Int("n", 10000, "number of objects to generate")
		m      = flag.Int("m", 10, "average instances per object")
		dist   = flag.String("dist", "anti", "dataset: anti, indep, house, nba, gw, clust")
		seed   = flag.Int64("seed", 1, "generation seed")
		input  = flag.String("input", "", "split a CSV dataset instead of generating")
		shards = flag.Int("shards", 4, "number of shards")
		out    = flag.String("out", "shards", "output directory")
	)
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("-shards must be >= 1, got %d", *shards)
	}

	var objs []*uncertain.Object
	source := ""
	if *input != "" {
		var err error
		objs, err = dataio.ReadFile(*input)
		if err != nil {
			log.Fatal(err)
		}
		source = *input
		log.Printf("loaded %d objects from %s", len(objs), *input)
	} else {
		centers, err := datagen.ParseCenterDist(*dist)
		if err != nil {
			log.Fatal(err)
		}
		ds := datagen.Generate(datagen.Params{N: *n, M: *m, Centers: centers, Seed: *seed})
		objs = ds.Objects
		source = fmt.Sprintf("datagen n=%d m=%d dist=%s seed=%d", *n, *m, *dist, *seed)
		log.Printf("generated %d %s objects", len(objs), centers)
	}

	parts := cluster.Partition(objs, *shards)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	man := manifest{Shards: len(parts), Objects: len(objs), Dim: objs[0].Dim(), Source: source}
	for si, part := range parts {
		name := fmt.Sprintf("shard-%03d.csv", si)
		if err := dataio.WriteFile(filepath.Join(*out, name), part); err != nil {
			log.Fatal(err)
		}
		man.Files = append(man.Files, name)
		man.Counts = append(man.Counts, len(part))
		log.Printf("%s: %d objects", name, len(part))
	}

	mf, err := os.Create(filepath.Join(*out, "manifest.json"))
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(man); err != nil {
		mf.Close()
		log.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d shard file(s) + manifest to %s", len(parts), *out)
}
