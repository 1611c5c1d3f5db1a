// Tradeoff: the Figure 5 story end to end. On one dataset and one query,
// the example shows (i) the candidate sets of all five operators nest
// along the cover chain, (ii) the nearest neighbor of EVERY implemented
// NN function lies inside the candidate set of every operator covering
// its family, and (iii) what each extra candidate buys in function
// coverage — the size/coverage trade-off the paper advocates.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"spatialdom"
	"spatialdom/internal/datagen"
	"spatialdom/internal/ref/nnfunc"
)

func main() {
	ds := datagen.Generate(datagen.Params{
		N: 400, M: 8, EdgeLen: 500,
		Centers: datagen.AntiCorrelated, Seed: 11,
	})
	idx, err := spatialdom.NewIndex(ds.Objects)
	if err != nil {
		log.Fatal(err)
	}
	query := ds.Queries(1, 6, 250, 5)[0]

	// (i) Nesting along the cover chain.
	sets := map[spatialdom.Operator]map[int]bool{}
	fmt.Println("candidate sets (cover chain):")
	var prev map[int]bool
	for _, op := range spatialdom.Operators {
		res := idx.Search(query, op)
		set := map[int]bool{}
		for _, id := range res.IDs() {
			set[id] = true
		}
		sets[op] = set
		fmt.Printf("  %-5v %3d candidates\n", op, len(set))
		if prev != nil {
			for id := range prev {
				if !set[id] {
					log.Fatalf("BUG: nesting violated at %v (object %d)", op, id)
				}
			}
		}
		prev = set
	}
	fmt.Println("  nesting SSD ⊆ SSSD ⊆ PSD ⊆ FSD ⊆ F+SD verified ✓")

	// (ii) Every function's NN is covered by the right operators.
	coverage := map[nnfunc.Family][]spatialdom.Operator{
		nnfunc.N1: {spatialdom.SSD, spatialdom.SSSD, spatialdom.PSD, spatialdom.FSD, spatialdom.FPlusSD},
		nnfunc.N2: {spatialdom.SSSD, spatialdom.PSD, spatialdom.FSD, spatialdom.FPlusSD},
		nnfunc.N3: {spatialdom.PSD, spatialdom.FSD, spatialdom.FPlusSD},
	}
	fmt.Println("\nper-function nearest neighbors and the operators whose candidates contain them:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  family\tfunction\tNN\tcontained in")
	objs := ds.Objects
	// N2 functions are quadratic in n; score them over the 150 closest
	// objects (every farther object is dominated under every family).
	n2objs := objs
	if len(n2objs) > 150 {
		n2objs = nearest(objs, query, 150)
	}
	for _, fam := range []nnfunc.Family{nnfunc.N1, nnfunc.N2, nnfunc.N3} {
		for _, f := range nnfunc.AllSuites()[fam] {
			pool := objs
			if fam == nnfunc.N2 {
				pool = n2objs
			}
			nn := nnfunc.NN(pool, query, f)
			var inside []string
			for _, op := range coverage[fam] {
				if sets[op][nn.ID()] {
					inside = append(inside, op.String())
				} else {
					log.Fatalf("BUG: NN under %s missing from NNC(%v)", f.Name(), op)
				}
			}
			fmt.Fprintf(tw, "  %v\t%s\t%d\t%v\n", fam, f.Name(), nn.ID(), inside)
		}
	}
	tw.Flush()

	// (iii) The trade-off in one line per operator.
	fmt.Println("\nthe trade-off:")
	fmt.Printf("  SSD : smallest set, safe for N1 only          (%d candidates)\n", len(sets[spatialdom.SSD]))
	fmt.Printf("  SSSD: + possible-world functions (N2)         (%d candidates)\n", len(sets[spatialdom.SSSD]))
	fmt.Printf("  PSD : + selected-pairs functions (N3, EMD…)   (%d candidates)\n", len(sets[spatialdom.PSD]))
	fmt.Printf("  FSD : same coverage as PSD, redundant extras  (%d candidates)\n", len(sets[spatialdom.FSD]))
	fmt.Printf("  F+SD: MBR-only baseline, most redundant       (%d candidates)\n", len(sets[spatialdom.FPlusSD]))
}

// nearest returns the k objects with the smallest min pair distance to q.
func nearest(objs []*spatialdom.Object, q *spatialdom.Object, k int) []*spatialdom.Object {
	type od struct {
		o *spatialdom.Object
		d float64
	}
	all := make([]od, len(objs))
	for i, o := range objs {
		best := -1.0
		for j := 0; j < q.Len(); j++ {
			if d := o.MinDist(q.Instance(j)); best < 0 || d < best {
				best = d
			}
		}
		all[i] = od{o, best}
	}
	for i := 0; i < k && i < len(all); i++ {
		min := i
		for j := i + 1; j < len(all); j++ {
			if all[j].d < all[min].d {
				min = j
			}
		}
		all[i], all[min] = all[min], all[i]
	}
	if len(all) > k {
		all = all[:k]
	}
	out := make([]*spatialdom.Object, len(all))
	for i, x := range all {
		out[i] = x.o
	}
	return out
}
