// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment returns a Table whose rows mirror the
// paper's presentation; DESIGN.md §4 maps experiment ids to paper
// artifacts, and ROADMAP.md item 2 plans the measured-vs-paper results.
//
// Experiments accept a scale factor: paper instruction counts (checkpoint
// interval lengths, replay windows) are divided by it. Scale 1 reproduces
// the paper's absolute sizes; the default scales keep laptop runtimes
// reasonable while preserving every relative claim.
package bench

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // experiment id, e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends an explanatory footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
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

// kb formats a byte count in KB with one decimal, like the paper's
// figures.
func kb(bytes int64) string {
	return fmt.Sprintf("%.1f", float64(bytes)/1024)
}

// mb formats a byte count in MB with two decimals.
func mb(bytes int64) string {
	return fmt.Sprintf("%.2f", float64(bytes)/(1<<20))
}

// human formats an instruction count the way the paper labels its axes
// (10K, 1M, 1B).
func human(n uint64) string {
	switch {
	case n >= 1_000_000_000 && n%1_000_000_000 == 0:
		return fmt.Sprintf("%dB", n/1_000_000_000)
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// pct formats a fraction as a percentage.
func pct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}
