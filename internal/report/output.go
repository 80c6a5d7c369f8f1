package report

import (
	"fmt"
	"os"
	"path/filepath"
)

// Output manages an experiment artifact directory, writing tables as both
// .txt and .csv and charts as .svg.
type Output struct {
	Dir string
}

// NewOutput creates (if necessary) and returns an artifact directory.
func NewOutput(dir string) (*Output, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("report: create output dir: %w", err)
	}
	return &Output{Dir: dir}, nil
}

// WriteTable stores the table under name.txt and name.csv.
func (o *Output) WriteTable(name string, t *Table) error {
	txt, err := os.Create(filepath.Join(o.Dir, name+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := t.Render(txt); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(o.Dir, name+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	if err := t.CSV(csv); err != nil {
		return err
	}
	o.note(name + ".txt/.csv")
	return nil
}

// WriteChart stores the chart under name.svg (800×500).
func (o *Output) WriteChart(name string, c *Chart) error {
	f, err := os.Create(filepath.Join(o.Dir, name+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.RenderSVG(f, 800, 500); err != nil {
		return err
	}
	o.note(name + ".svg")
	return nil
}

func (o *Output) note(name string) {
	fmt.Printf("wrote %s\n", filepath.Join(o.Dir, name))
}
