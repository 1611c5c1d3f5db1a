package diskstore

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// rawRecord is a quick-generated object description, including labels with
// exotic bytes.
type rawRecord struct {
	ID    int32
	Xs    [5]uint8
	Ws    [5]uint8
	N     uint8
	D     uint8
	Label []byte
}

func (r rawRecord) object() (*uncertain.Object, error) {
	n := int(r.N%5) + 1
	d := int(r.D%3) + 1
	pts := make([]geom.Point, n)
	ws := make([]float64, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, d)
		for j := 0; j < d; j++ {
			p[j] = float64(r.Xs[(i+j)%5]) / 3
		}
		pts[i] = p
		ws[i] = float64(r.Ws[i]%9) + 0.5
	}
	label := r.Label
	if len(label) > 40 {
		label = label[:40]
	}
	o, err := uncertain.New(int(r.ID), pts, ws)
	if err != nil {
		return nil, err
	}
	o.SetLabel(string(label))
	return o, nil
}

// Every quick-generated object survives an append/read round trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	pf, err := pager.Create(filepath.Join(t.TempDir(), "q.pg"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	s, tx := create(t, pager.NewPool(pf, 8))
	f := func(r rawRecord) bool {
		o, err := r.object()
		if err != nil {
			return false
		}
		ptr, err := s.AppendTx(tx, o)
		if err != nil {
			return false
		}
		got, err := s.Read(ptr)
		if err != nil {
			return false
		}
		if got.ID() != o.ID() || got.Len() != o.Len() || got.Dim() != o.Dim() || got.Label() != o.Label() {
			return false
		}
		for i := 0; i < o.Len(); i++ {
			if !got.Instance(i).Equal(o.Instance(i)) {
				return false
			}
			if math.Abs(got.Prob(i)-o.Prob(i)) > 1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3333))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
