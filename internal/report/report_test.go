package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", "x")
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "alpha") || !strings.Contains(s, "1.5") {
		t.Fatalf("render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

// TestTableAlignsRunes: a header or cell with multibyte runes (τ0, ϵ_mul,
// σ) is padded by the runes it shows, so every column starts at the same
// rune offset on every line, and the rule is exactly as wide as a line.
func TestTableAlignsRunes(t *testing.T) {
	tb := NewTable("", "τ0", "ϵ_mul", "E")
	tb.AddRow("0.16", "1.203", "x")
	tb.AddRow("σ", "2", "y")
	want := "τ0    ϵ_mul  E\n" +
		"--------------\n" +
		"0.16  1.203  x\n" +
		"σ     2      y\n"
	got := tb.String()
	if got != want {
		t.Fatalf("render =\n%s\nwant\n%s", got, want)
	}
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for _, l := range lines {
		if n, rule := utf8.RuneCountInString(l), utf8.RuneCountInString(lines[1]); n != rule {
			t.Fatalf("line %q is %d runes, the rule %d", l, n, rule)
		}
	}
}

// TestTableRowWiderThanHeaders: a row with more cells than headers renders
// (it used to index past the header widths and panic), and the columns
// and the rule cover it.
func TestTableRowWiderThanHeaders(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1, 2)
	tb.AddRow(345, 6)
	want := "a  \n" +
		"------\n" +
		"1    2\n" +
		"345  6\n"
	if got := tb.String(); got != want {
		t.Fatalf("render =\n%s\nwant\n%s", got, want)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`hello, "world"`, 2)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"hello, \"\"world\"\"\",2\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestChartASCII(t *testing.T) {
	var c Chart
	c.Title = "t"
	c.XLabel = "x"
	c.YLabel = "y"
	if err := c.AddSeries("s1", []float64{0, 1, 2}, []float64{0, 1, 4}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := c.RenderASCII(&sb, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "s1") {
		t.Fatalf("ascii chart missing content:\n%s", out)
	}
}

func TestChartSeriesValidation(t *testing.T) {
	var c Chart
	if err := c.AddSeries("bad", []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched series accepted")
	}
}

func TestChartEmptyASCII(t *testing.T) {
	var c Chart
	var sb strings.Builder
	if err := c.RenderASCII(&sb, 30, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty chart not flagged")
	}
}

func TestChartSVGWellFormed(t *testing.T) {
	var c Chart
	c.Title = "Energy & <Error>"
	if err := c.AddSeries("series \"A\"", []float64{0, 1}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := c.RenderSVG(&sb, 400, 300); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if strings.Contains(svg, "<Error>") {
		t.Fatal("unescaped XML in title")
	}
	if !strings.Contains(svg, "polyline") {
		t.Fatal("missing polyline")
	}
}

func TestChartFlatSeriesDoesNotDivideByZero(t *testing.T) {
	var c Chart
	if err := c.AddSeries("flat", []float64{1, 1}, []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := c.RenderSVG(&sb, 300, 200); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Fatal("NaN leaked into SVG")
	}
}

func TestOutputWritesArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	o, err := NewOutput(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable("T", "a")
	tb.AddRow(1)
	if err := o.WriteTable("table1", tb); err != nil {
		t.Fatal(err)
	}
	var c Chart
	if err := c.AddSeries("s", []float64{0, 1}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteChart("chart1", &c); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.txt", "table1.csv", "chart1.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("artifact %s missing: %v", name, err)
		}
	}
}
