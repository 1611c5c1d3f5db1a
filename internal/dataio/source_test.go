package dataio

import (
	"errors"
	"flag"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// parseSource runs the seven flags the way a tool does.
func parseSource(t *testing.T, args ...string) *Source {
	t.Helper()
	var s Source
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &s
}

// Values the generator would panic on (makeslice, Intn) are usage errors.
func TestSourceLoadRejectsBadFlags(t *testing.T) {
	for _, arg := range []string{
		"-n=0", "-n=-1", "-m=0", "-m=-2", "-d=0", "-d=-1",
		"-hd=0", "-hd=-400", "-hd=NaN", "-dist=zipf", "-dist=",
	} {
		ds, _, err := parseSource(t, arg).Load()
		if !errors.Is(err, ErrUsage) || ds != nil {
			t.Errorf("%s: Load = %v, %v; want ErrUsage", arg, ds, err)
		}
	}
	if _, _, err := parseSource(t, "-input="+filepath.Join(t.TempDir(), "missing.csv")).Load(); err == nil || errors.Is(err, ErrUsage) {
		t.Errorf("missing -input file: %v; want a plain error", err)
	}
}

// The same flags are the same objects: across two Loads, for every
// distribution, and across -input of what was written out.
func TestSourceSameFlagsSameObjects(t *testing.T) {
	for _, dist := range []string{"anti", "indep", "house", "nba", "gw", "clust"} {
		args := []string{"-n=60", "-m=7", "-d=4", "-hd=250", "-seed=5", "-dist=" + dist}
		a, label, err := parseSource(t, args...).Load()
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := parseSource(t, args...).Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Objects) != 60 || !reflect.DeepEqual(a.Objects, b.Objects) || !reflect.DeepEqual(a.Centers, b.Centers) {
			t.Fatalf("%s: two Loads of the same flags differ", label)
		}
		if !reflect.DeepEqual(a.Queries(3, 5, 200, 9), b.Queries(3, 5, 200, 9)) {
			t.Fatalf("%s: same dataset, different queries", label)
		}

		path := filepath.Join(t.TempDir(), dist+".csv")
		if err := WriteFile(path, a.Objects); err != nil {
			t.Fatal(err)
		}
		back, backLabel, err := parseSource(t, "-input="+path).Load()
		if err != nil {
			t.Fatal(err)
		}
		if backLabel != path || !reflect.DeepEqual(a.Objects, back.Objects) {
			t.Fatalf("%s: objects changed on the way through %s", label, path)
		}
		// A CSV dataset draws its queries around its objects.
		for _, q := range back.Queries(4, 5, 200, 9) {
			if q.Dim() != a.Objects[0].Dim() || q.Len() < 1 {
				t.Fatalf("%s: query %v drawn from the CSV dataset", label, q)
			}
		}
	}
}

// Equal weights read back as exactly 1/m, whatever their sum rounds to;
// anything New would reject is still rejected.
func TestUniformAsNil(t *testing.T) {
	for _, ws := range [][]float64{{0.1, 0.1, 0.1}, {3}, {7, 7}} {
		if uniformAsNil(ws) != nil {
			t.Errorf("%v not recognised as uniform", ws)
		}
	}
	for _, ws := range [][]float64{{1, 2}, {0, 0}, {-1, -1}, {math.Inf(1), math.Inf(1)}, {math.NaN()}} {
		if uniformAsNil(ws) == nil {
			t.Errorf("%v passed as uniform", ws)
		}
	}
}
