// Package datagen produces the synthetic datasets of the paper's
// evaluation (Section 6) and deterministic stand-ins for its real datasets.
//
// Synthetic data follows the methodology of Börzsönyi et al. [8]: object
// centers drawn from an anti-correlated (A) or independent (E)
// distribution over the domain [0, 10000]^d; each object's bounding box
// has edge lengths drawn uniformly from (0, 2·h_d]; instances are sampled
// from a Normal distribution around the center with standard deviation
// h_d/2, truncated to the box (the "N" instance distribution).
//
// The real datasets are replaced by generators that reproduce their role
// in the evaluation (see DESIGN.md §14): HOUSE → 3-d simplex shares, CA/USA
// → clustered 2-d locations at two scales, NBA → heavily overlapping 3-d
// stat clouds, GW → hotspot-sharing 2-d check-in clouds.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Domain is the upper bound of every normalized dimension.
const Domain = 10000.0

// CenterDist selects the object-center distribution.
type CenterDist int

const (
	// Independent draws centers uniformly ("E" in the paper).
	Independent CenterDist = iota
	// AntiCorrelated draws centers near the anti-diagonal hyperplane
	// ("A", the default synthetic distribution).
	AntiCorrelated
	// Clustered draws centers from a Gaussian mixture — the stand-in for
	// the CA and USA location datasets.
	Clustered
	// HouseLike draws 3-d expenditure-share-style centers on the scaled
	// probability simplex — the stand-in for HOUSE.
	HouseLike
	// NBALike draws 3-d per-game-stat-style objects with heavily
	// overlapping instance clouds — the stand-in for NBA.
	NBALike
	// GWLike draws 2-d check-in-style objects whose instances concentrate
	// around shared hotspots — the stand-in for GoWalla.
	GWLike
)

// String returns the dataset tag used in the figures.
func (c CenterDist) String() string {
	switch c {
	case Independent:
		return "E-N"
	case AntiCorrelated:
		return "A-N"
	case Clustered:
		return "CLUST"
	case HouseLike:
		return "HOUSE"
	case NBALike:
		return "NBA"
	case GWLike:
		return "GW"
	default:
		return fmt.Sprintf("CenterDist(%d)", int(c))
	}
}

// ParseCenterDist maps a dataset name — the short spelling the command-line
// tools take (anti, indep, clust, house, nba, gw) or the figure tag String
// returns — to its CenterDist, ignoring case and surrounding space.
func ParseCenterDist(s string) (CenterDist, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "indep", "e-n":
		return Independent, nil
	case "anti", "a-n":
		return AntiCorrelated, nil
	case "clust":
		return Clustered, nil
	case "house":
		return HouseLike, nil
	case "nba":
		return NBALike, nil
	case "gw":
		return GWLike, nil
	}
	return 0, fmt.Errorf("unknown dataset %q", s)
}

// Params mirrors Table 2 of the paper.
type Params struct {
	// N is the number of objects (paper default 100k; scale down for the
	// test container).
	N int
	// Dim is the dimensionality d (paper default 3; forced to 3 for
	// HouseLike/NBALike and 2 for Clustered/GWLike).
	Dim int
	// M is the average number of instances per object (m_d, default 40).
	M int
	// EdgeLen is the expected MBB edge length h_d (default 400); actual
	// per-object edges are uniform in (0, 2·EdgeLen].
	EdgeLen float64
	// Centers selects the center distribution. The zero value is
	// Independent and withDefaults leaves it alone: the paper's default,
	// AntiCorrelated, must be asked for.
	Centers CenterDist
	// Clusters is the mixture size for Clustered/GWLike (default 20).
	Clusters int
	// Seed makes generation deterministic.
	Seed int64
}

// withDefaults fills zero fields with the paper's defaults.
func (p Params) withDefaults() Params {
	if p.N == 0 {
		p.N = 1000
	}
	if p.Dim == 0 {
		p.Dim = 3
	}
	switch p.Centers {
	case Clustered, GWLike:
		p.Dim = 2
	case HouseLike, NBALike:
		p.Dim = 3
	}
	if p.M == 0 {
		p.M = 40
	}
	if p.EdgeLen == 0 {
		p.EdgeLen = 400
	}
	if p.Clusters == 0 {
		p.Clusters = 20
	}
	return p
}

// Dataset is a generated object collection plus the centers it grew from
// (used to derive query workloads).
type Dataset struct {
	Params  Params
	Objects []*uncertain.Object
	Centers []geom.Point
}

// Generate builds a deterministic dataset for the given parameters.
func Generate(p Params) *Dataset {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	centers := makeCenters(rng, p)
	objects := make([]*uncertain.Object, p.N)
	for i, c := range centers {
		objects[i] = makeObject(rng, p, i+1, c)
	}
	return &Dataset{Params: p, Objects: objects, Centers: centers}
}

// Queries draws a deterministic query workload: count query objects whose
// centers are randomly selected object centers (as in Section 6) and whose
// instances follow the same instance model with mq instances and edge
// length hq.
func (ds *Dataset) Queries(count, mq int, hq float64, seed int64) []*uncertain.Object {
	rng := rand.New(rand.NewSource(seed))
	qp := ds.Params
	qp.M = mq
	qp.EdgeLen = hq
	out := make([]*uncertain.Object, count)
	for i := range out {
		c := ds.Centers[rng.Intn(len(ds.Centers))]
		out[i] = makeObject(rng, qp, -(i + 1), c)
	}
	return out
}

// --- centers -----------------------------------------------------------------

func makeCenters(rng *rand.Rand, p Params) []geom.Point {
	switch p.Centers {
	case AntiCorrelated:
		return antiCenters(rng, p.N, p.Dim)
	case Clustered, GWLike:
		return clusterCenters(rng, p.N, p.Dim, p.Clusters)
	case HouseLike:
		return simplexCenters(rng, p.N)
	case NBALike:
		return nbaCenters(rng, p.N)
	default:
		return uniformCenters(rng, p.N, p.Dim)
	}
}

func uniformCenters(rng *rand.Rand, n, d int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = rng.Float64() * Domain
		}
		out[i] = c
	}
	return out
}

// antiCenters samples near the hyperplane Σx = d·Domain/2 (Börzsönyi [8]):
// a shared "budget" is spread over the dimensions with normal jitter.
func antiCenters(rng *rand.Rand, n, d int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		c := make(geom.Point, d)
		budget := normal(rng, Domain/2, Domain/12)
		// Random simplex split of the total budget d·budget.
		w := make([]float64, d)
		var sum float64
		for j := range w {
			w[j] = rng.ExpFloat64()
			sum += w[j]
		}
		for j := range c {
			c[j] = clamp(w[j]/sum*budget*float64(d), 0, Domain)
		}
		out[i] = c
	}
	return out
}

func clusterCenters(rng *rand.Rand, n, d, k int) []geom.Point {
	hubs := uniformCenters(rng, k, d)
	sigma := Domain / 25
	out := make([]geom.Point, n)
	for i := range out {
		h := hubs[rng.Intn(k)]
		c := make(geom.Point, d)
		for j := range c {
			c[j] = clamp(normal(rng, h[j], sigma), 0, Domain)
		}
		out[i] = c
	}
	return out
}

// simplexCenters samples 3-d expenditure shares: three positive fractions
// summing to one, scaled to the domain (the HOUSE role: a mildly
// correlated 3-d center distribution).
func simplexCenters(rng *rand.Rand, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		a, b, c := rng.ExpFloat64(), rng.ExpFloat64(), rng.ExpFloat64()
		s := a + b + c
		out[i] = geom.Point{a / s * Domain, b / s * Domain, c / s * Domain}
	}
	return out
}

// nbaCenters samples 3-d skill levels with a long right tail (points,
// assists, rebounds scaled to the domain); the bulk of players overlaps
// heavily, as in the real NBA data.
func nbaCenters(rng *rand.Rand, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		skill := rng.Float64() // shared latent skill correlates the stats
		c := make(geom.Point, 3)
		for j := range c {
			base := math.Exp(normal(rng, -1.2+1.5*skill, 0.5))
			c[j] = clamp(base/6*Domain, 0, Domain)
		}
		out[i] = c
	}
	return out
}

// --- objects -----------------------------------------------------------------

func makeObject(rng *rand.Rand, p Params, id int, center geom.Point) *uncertain.Object {
	switch p.Centers {
	case NBALike:
		return nbaObject(rng, p, id, center)
	case GWLike:
		return gwObject(rng, p, id, center)
	default:
		return boxNormalObject(rng, p, id, center)
	}
}

// boxNormalObject is the standard instance model: edges uniform in
// (0, 2·h_d], instances Normal(center, h_d/2) truncated to the box.
func boxNormalObject(rng *rand.Rand, p Params, id int, center geom.Point) *uncertain.Object {
	d := len(center)
	half := make([]float64, d)
	for j := range half {
		half[j] = rng.Float64() * p.EdgeLen // edge/2, edge ~ U(0, 2h]
	}
	m := instanceCount(rng, p.M)
	pts := make([]geom.Point, m)
	sigma := p.EdgeLen / 2
	for i := range pts {
		pt := make(geom.Point, d)
		for j := range pt {
			lo := math.Max(center[j]-half[j], 0)
			hi := math.Min(center[j]+half[j], Domain)
			if lo > hi {
				lo, hi = hi, lo
			}
			pt[j] = clamp(normal(rng, center[j], sigma), lo, hi)
		}
		pts[i] = pt
	}
	return uncertain.MustNew(id, pts, nil)
}

// nbaObject spreads instances widely relative to the center (game-to-game
// variance), producing the heavy overlap the NBA dataset exhibits.
func nbaObject(rng *rand.Rand, p Params, id int, center geom.Point) *uncertain.Object {
	m := instanceCount(rng, p.M)
	pts := make([]geom.Point, m)
	for i := range pts {
		pt := make(geom.Point, len(center))
		for j := range pt {
			// Per-game stats: non-negative, heavy spread ~ half the level.
			pt[j] = clamp(normal(rng, center[j], 0.5*center[j]+Domain/100), 0, Domain)
		}
		pts[i] = pt
	}
	return uncertain.MustNew(id, pts, nil)
}

// gwObject concentrates instances around a few personal hotspots near the
// user's home center; hotspot sharing across users yields strong overlap.
func gwObject(rng *rand.Rand, p Params, id int, center geom.Point) *uncertain.Object {
	m := instanceCount(rng, p.M)
	nh := 1 + rng.Intn(3)
	hotspots := make([]geom.Point, nh)
	for i := range hotspots {
		hotspots[i] = geom.Point{
			clamp(normal(rng, center[0], Domain/50), 0, Domain),
			clamp(normal(rng, center[1], Domain/50), 0, Domain),
		}
	}
	pts := make([]geom.Point, m)
	for i := range pts {
		h := hotspots[rng.Intn(nh)]
		pts[i] = geom.Point{
			clamp(normal(rng, h[0], Domain/200), 0, Domain),
			clamp(normal(rng, h[1], Domain/200), 0, Domain),
		}
	}
	return uncertain.MustNew(id, pts, nil)
}

// instanceCount jitters the average m by ±25% (at least one instance).
func instanceCount(rng *rand.Rand, m int) int {
	lo := m - m/4
	span := m/2 + 1
	n := lo + rng.Intn(span)
	if n < 1 {
		n = 1
	}
	return n
}

func normal(rng *rand.Rand, mean, sigma float64) float64 {
	return mean + rng.NormFloat64()*sigma
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
