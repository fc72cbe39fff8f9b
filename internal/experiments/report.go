package experiments

// What every experiment reports with: aligned table rendering,
// trajectory series output, wall-clock throughput and memory sampling.

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// table accumulates rows and renders them with aligned columns, in the
// spirit of the paper's tables.
type table struct {
	header []string
	rows   [][]string
}

// newTable starts a table with the given column headers.
func newTable(header ...string) *table {
	return &table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table with aligned columns.
func (t *table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// series records an (x, y...) trajectory — one figure line.
type series struct {
	Name   string
	Labels []string
	points [][]float64
}

// newSeries starts a series with a name and per-column labels (the first
// label is the x axis).
func newSeries(name string, labels ...string) *series {
	return &series{Name: name, Labels: labels}
}

// Add appends one point.
func (s *series) Add(values ...float64) {
	p := make([]float64, len(values))
	copy(p, values)
	s.points = append(s.points, p)
}

// Len returns the number of points.
func (s *series) Len() int { return len(s.points) }

// Last returns the final point (nil if empty).
func (s *series) Last() []float64 {
	if len(s.points) == 0 {
		return nil
	}
	return s.points[len(s.points)-1]
}

// Render writes the series as aligned columns prefixed by its name.
func (s *series) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# series: %s\n", s.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# %s\n", strings.Join(s.Labels, "\t")); err != nil {
		return err
	}
	for _, p := range s.points {
		cells := make([]string, len(p))
		for i, v := range p {
			cells[i] = fmt.Sprintf("%.6g", v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// liveHeapMB returns the current live-heap size in mebibytes after a GC, the
// measurement used for Figure 6's memory axis.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// throughput measures steps/second for a stepped workload: it runs step()
// n times and returns the rate.
func throughput(n int, step func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		step()
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}
