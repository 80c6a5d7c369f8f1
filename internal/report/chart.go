package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a multi-series line chart rendered either as ASCII (terminal)
// or SVG (file artifact).
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// AddSeries appends a named series; x and y must have equal length.
func (c *Chart) AddSeries(name string, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("report: series %q has %d x-values and %d y-values", name, len(x), len(y))
	}
	c.Series = append(c.Series, Series{Name: name, X: append([]float64(nil), x...), Y: append([]float64(nil), y...)})
	return nil
}

func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			if s.X[i] < xmin {
				xmin = s.X[i]
			}
			if s.X[i] > xmax {
				xmax = s.X[i]
			}
			if s.Y[i] < ymin {
				ymin = s.Y[i]
			}
			if s.Y[i] > ymax {
				ymax = s.Y[i]
			}
		}
	}
	if xmin == xmax {
		xmin, xmax = xmin-1, xmax+1
	}
	if ymin == ymax {
		ymin, ymax = ymin-1, ymax+1
	}
	return
}

const asciiMarkers = "*o+x#@%&"

// RenderASCII draws the chart on a character grid of the given size.
func (c *Chart) RenderASCII(w io.Writer, width, height int) error {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	if len(c.Series) == 0 {
		_, err := io.WriteString(w, "(empty chart)\n")
		return err
	}
	xmin, xmax, ymin, ymax := c.bounds()
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		marker := asciiMarkers[si%len(asciiMarkers)]
		for i := range s.X {
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = marker
			}
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	fmt.Fprintf(&b, "%10.4g ┤\n", ymax)
	for _, row := range grid {
		fmt.Fprintf(&b, "           │%s\n", string(row))
	}
	fmt.Fprintf(&b, "%10.4g └%s\n", ymin, strings.Repeat("─", width))
	fmt.Fprintf(&b, "            %-10.4g%s%10.4g\n", xmin, strings.Repeat(" ", max(0, width-20)), xmax)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "            x: %s   y: %s\n", c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "            %c %s\n", asciiMarkers[si%len(asciiMarkers)], s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// svgPalette holds the line colors for SVG rendering.
var svgPalette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
	"#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
}

// RenderSVG writes a standalone SVG chart of the given pixel size.
func (c *Chart) RenderSVG(w io.Writer, width, height int) error {
	if width < 200 {
		width = 200
	}
	if height < 150 {
		height = 150
	}
	const margin = 55
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)
	xmin, xmax, ymin, ymax := c.bounds()
	px := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 { return float64(height) - margin - (y-ymin)/(ymax-ymin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, height-margin, width-margin, height-margin)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, margin, margin, height-margin)
	// Ticks and grid (5 divisions each way).
	for i := 0; i <= 5; i++ {
		xv := xmin + (xmax-xmin)*float64(i)/5
		yv := ymin + (ymax-ymin)*float64(i)/5
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>`+"\n", px(xv), margin, px(xv), height-margin)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n", margin, py(yv), width-margin, py(yv))
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" text-anchor="middle">%.3g</text>`+"\n", px(xv), height-margin+14, xv)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="10" text-anchor="end">%.3g</text>`+"\n", margin-5, py(yv)+3, yv)
	}
	// Series.
	for si, s := range c.Series {
		color := svgPalette[si%len(svgPalette)]
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", strings.Join(pts, " "), color)
		for i := range s.X {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="%s"/>`+"\n", px(s.X[i]), py(s.Y[i]), color)
		}
		// Legend entry.
		ly := margin + 14*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", width-margin-110, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">%s</text>`+"\n", width-margin-96, ly+9, xmlEscape(s.Name))
	}
	// Labels.
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="13" text-anchor="middle" font-weight="bold">%s</text>`+"\n", width/2, 20, xmlEscape(c.Title))
	}
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n", width/2, height-10, xmlEscape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="15" y="%d" font-size="11" text-anchor="middle" transform="rotate(-90 15 %d)">%s</text>`+"\n", height/2, height/2, xmlEscape(c.YLabel))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
