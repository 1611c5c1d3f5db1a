// NNcore: why the paper rejects the prior candidate definition. The
// NN-core of Yuen et al. (the paper's reference [36]) keeps only objects
// that probabilistically "supersede" everything else — and can therefore
// evict the true nearest neighbor of perfectly common NN functions. This
// example reconstructs Figure 1 of the paper: the NN-core is {A}, yet B is
// the nearest neighbor under expected distance and C under max distance.
// The paper's S-SD candidates keep all three.
//
//	go run ./examples/nncore
package main

import (
	"fmt"
	"log"

	"spatialdom"
	"spatialdom/internal/ref/nncore"
	"spatialdom/internal/uncertain"
)

func main() {
	// Figure 1 on a line: two instances per object with probabilities
	// 0.6 / 0.4, a single-instance query at the origin.
	q, _ := spatialdom.NewObject(0, [][]float64{{0}}, nil)
	a, _ := spatialdom.NewObject(1, [][]float64{{1}, {100}}, []float64{0.6, 0.4})
	b, _ := spatialdom.NewObject(2, [][]float64{{2}, {90}}, []float64{0.6, 0.4})
	c, _ := spatialdom.NewObject(3, [][]float64{{3}, {89}}, []float64{0.6, 0.4})
	a.SetLabel("A")
	b.SetLabel("B")
	c.SetLabel("C")
	objs := []*spatialdom.Object{a, b, c}

	fmt.Println("pairwise supersede probabilities (Pr[row closer than column]):")
	for _, u := range objs {
		for _, v := range objs {
			if u == v {
				continue
			}
			fmt.Printf("  Pr(%s beats %s) = %.2f\n", u.Label(), v.Label(), nncore.SupersedeProb(u, v, q))
		}
	}

	core := nncore.Core(objs, q)
	fmt.Printf("\nNN-core (Yuen et al.): %v\n", labels(core))

	fmt.Println("\nbut the per-function nearest neighbors are:")
	for _, f := range []spatialdom.NNFunc{
		spatialdom.MinDistFunc(),
		spatialdom.ExpectedDistFunc(),
		spatialdom.MaxDistFunc(),
	} {
		nn := spatialdom.NearestNeighbor(objs, q, f)
		fmt.Printf("  %-9s -> %s\n", f.Name(), nn.Label())
	}

	idx, err := spatialdom.NewIndex(objs)
	if err != nil {
		log.Fatal(err)
	}
	res := idx.Search(q, spatialdom.SSD)
	fmt.Printf("\nS-SD candidates (optimal for N1): %v\n", labelIDs(res))
	fmt.Println("→ the NN-core dropped B and C even though each is the NN under a")
	fmt.Println("  popular N1 function; the S-SD candidate set keeps exactly the")
	fmt.Println("  objects that can win, which is the paper's Remark 1.")
}

func labels(objs []*uncertain.Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Label()
	}
	return out
}

func labelIDs(res *spatialdom.Result) []string {
	out := make([]string, len(res.Candidates))
	for i, c := range res.Candidates {
		out[i] = c.Object.Label()
	}
	return out
}
