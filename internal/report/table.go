// Package report renders experiment artifacts: aligned text tables, CSV
// files, ASCII line charts for terminal inspection, and standalone SVG
// charts — everything the cmd tools and benchmarks use to regenerate the
// paper's figures and tables.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table with an optional title.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
//
//lint:ignore unusedapi the paper-table checks (exp and root tests) count rows through it
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the formatted table to w. Widths count runes, not bytes,
// so a header or cell such as "τ0" or "ϵ_mul" pads to the columns it shows.
// The columns cover the widest row, headers included, and the dashed rule
// is as wide as a full line.
func (t *Table) Render(w io.Writer) error {
	var widths []int
	grow := func(cells []string) {
		for i, c := range cells {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	grow(t.Headers)
	for _, r := range t.rows {
		grow(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	rule := 0
	for i, w := range widths {
		if i > 0 {
			rule += 2
		}
		rule += w
	}
	b.WriteString(strings.Repeat("-", rule))
	b.WriteString("\n")
	for _, r := range t.rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

func pad(s string, w int) string {
	if n := utf8.RuneCountInString(s); n < w {
		return s + strings.Repeat(" ", w-n)
	}
	return s
}

// CSV writes the table as comma-separated values (RFC 4180, through
// encoding/csv).
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	return cw.WriteAll(t.rows)
}
