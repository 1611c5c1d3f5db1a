package dataio

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
)

// ErrUsage marks an error that is the command line's fault — a flag value
// no dataset can be made from. Tools exit 2 on it and 1 on anything else.
var ErrUsage = errors.New("usage")

// Source is the one definition of "the dataset" the tools and the server
// share: the parameters of the paper's Table 2 generator, or a CSV file.
// The same flag values mean the same objects — and the same query
// workload drawn from them — in every binary that registers it.
type Source struct {
	N, M, D int
	HD      float64
	Dist    string
	Seed    int64
	Input   string
}

// Flags registers the seven dataset flags on fs.
func (s *Source) Flags(fs *flag.FlagSet) {
	fs.IntVar(&s.N, "n", 2000, "number of objects to generate")
	fs.IntVar(&s.M, "m", 10, "average instances per object")
	fs.IntVar(&s.D, "d", 3, "dimensionality (house and nba are 3-d, clust and gw 2-d, whatever -d says)")
	fs.Float64Var(&s.HD, "hd", 400, "object MBB edge length")
	fs.StringVar(&s.Dist, "dist", "anti", "dataset: anti, indep, house, nba, gw, clust")
	fs.Int64Var(&s.Seed, "seed", 1, "generation seed")
	fs.StringVar(&s.Input, "input", "", "load objects from a CSV file (object_id,instance_idx,weight,x1,...) instead of generating")
}

// Load returns the dataset the flags name and a label for it. With -input
// the objects come from the CSV file and the dataset's centers — where
// Queries puts its query objects — are the objects' MBR centers; otherwise
// the generator runs, after its parameters have been checked (it panics on
// a count below one).
func (s *Source) Load() (*datagen.Dataset, string, error) {
	if s.Input != "" {
		objs, err := ReadFile(s.Input)
		if err != nil {
			return nil, "", err
		}
		centers := make([]geom.Point, len(objs))
		for i, o := range objs {
			centers[i] = o.MBR().Center()
		}
		return &datagen.Dataset{Objects: objs, Centers: centers}, s.Input, nil
	}
	centers, err := datagen.ParseCenterDist(s.Dist)
	switch {
	case err != nil:
		return nil, "", fmt.Errorf("%w: -dist: %v", ErrUsage, err)
	case s.N < 1 || s.M < 1 || s.D < 1 || !(s.HD > 0):
		return nil, "", fmt.Errorf("%w: -n=%d, -m=%d and -d=%d must each be at least 1 and -hd=%g positive", ErrUsage, s.N, s.M, s.D, s.HD)
	}
	ds := datagen.Generate(datagen.Params{N: s.N, Dim: s.D, M: s.M, EdgeLen: s.HD, Centers: centers, Seed: s.Seed})
	label := fmt.Sprintf("%s n=%d m=%d d=%d hd=%g seed=%d", strings.ToUpper(s.Dist), s.N, s.M, ds.Params.Dim, s.HD, s.Seed)
	return ds, label, nil
}
