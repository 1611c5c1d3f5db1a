package harness

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestTableTextAndCSV(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Columns: []string{"x", "a", "b"},
	}
	tbl.AddRow("1", "10", "20")
	tbl.AddRow("2", "30", "40")

	var text bytes.Buffer
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "x", "a", "b", "10", "40"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = -1 // the title row has a single field
	records, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("CSV rows = %d", len(records))
	}
	if records[0][0] != "# demo" || records[1][0] != "x" || records[3][2] != "40" {
		t.Fatalf("CSV content wrong: %v", records)
	}
}

func TestFigureTablesAndCSV(t *testing.T) {
	tables, err := FigureTables("10", Tiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 7 {
		t.Fatalf("figure 10 tables = %d with %d rows", len(tables), len(tables[0].Rows))
	}
	ab, err := FigureTables("16", Tiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != 6 {
		t.Fatalf("figure 16 tables = %d, want two per operator (time, comparisons)", len(ab))
	}
	sweep, err := FigureTables("11f", Tiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := range sweep {
		if err := sweep[i].WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "SSSD") {
		t.Fatalf("CSV missing operator columns:\n%s", buf.String())
	}
	if _, err := FigureTables("nope", Tiny, 5); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestSpecForAllScales(t *testing.T) {
	prevN := 0
	for _, sc := range []Scale{Tiny, Small, Medium, Paper} {
		sp := specFor(sc)
		if sp.N <= prevN {
			t.Fatalf("scale %d N=%d not increasing", sc, sp.N)
		}
		prevN = sp.N
		if sp.Queries <= 0 || sp.Md <= 0 || sp.Mq <= 0 || len(sp.MdSweep) == 0 ||
			len(sp.HdSweep) == 0 || len(sp.NSweep) == 0 || len(sp.DSweep) == 0 {
			t.Fatalf("scale %d spec incomplete: %+v", sc, sp)
		}
	}
	// The Paper scale must match Table 2 exactly.
	sp := specFor(Paper)
	if sp.N != 100000 || sp.Md != 40 || sp.Hd != 400 || sp.Mq != 30 || sp.Hq != 200 || sp.Queries != 100 {
		t.Fatalf("paper defaults drifted: %+v", sp)
	}
}
