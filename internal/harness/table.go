package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"text/tabwriter"
)

// Table is one figure's data in structured form: machine-readable for the
// CSV output mode, renderable as aligned text for the terminal.
type Table struct {
	// Title describes the figure and its fixed parameters.
	Title string
	// Columns holds the header row (first column is the x-axis label).
	Columns []string
	// Rows holds the data rows as formatted strings.
	Rows [][]string
}

// AddRow appends a row from formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText renders the table as an aligned text block.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, col := range t.Columns {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, col)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteCSV renders the table as CSV with a leading comment row carrying
// the title.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.Title}); err != nil {
		return err
	}
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
