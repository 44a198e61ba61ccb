// Package bench is the experiment harness behind EXPERIMENTS.md: it runs
// the experiments defined in DESIGN.md (E1-E5, E7, E9, E10) —
// step-complexity sweeps, adversarial lower-bound constructions, ablations,
// and cross-implementation comparisons — plus the harness and hardware
// sweeps E12 (parallel exploration), E13 (counter contention) and E14
// (partial-order reduction), and renders their results as tables for
// cmd/tradeoff. (E6, wall-clock throughput, lives in the repository root's
// bench_test.go, since it uses testing.B; E8 is realized as test
// assertions inside the adversary constructions.)
package bench

import (
	"fmt"
	"strings"
)

// Table is one rendered experiment result (one table or figure-equivalent
// of the paper).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Text renders the table with aligned columns for terminals.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)

	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	b.WriteString("|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells are simple
// identifiers and numbers; no quoting needed).
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(&b, strings.Join(row, ","))
	}
	return b.String()
}
