package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := newTable("Graph", "Nodes", "r")
	tb.AddRow("CA-GrQc", 5242, 0.66)
	tb.AddRow("Caltech", 769, -0.06)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Graph") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "CA-GrQc") || !strings.Contains(lines[2], "5242") {
		t.Errorf("row missing values: %q", lines[2])
	}
	// Columns align: "Nodes" column starts at the same offset everywhere.
	off := strings.Index(lines[0], "Nodes")
	if !strings.HasPrefix(lines[2][off:], "5242") && !strings.HasPrefix(lines[3][off:], "769") {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestSeries(t *testing.T) {
	s := newSeries("triangles", "step", "count")
	s.Add(0, 10)
	s.Add(100, 25)
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
	last := s.Last()
	if last[0] != 100 || last[1] != 25 {
		t.Errorf("last = %v, want [100 25]", last)
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# series: triangles") {
		t.Errorf("missing series header:\n%s", out)
	}
	if !strings.Contains(out, "100\t25") {
		t.Errorf("missing data point:\n%s", out)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := newSeries("empty", "x")
	if s.Last() != nil {
		t.Error("Last on empty series should be nil")
	}
}

func TestHeapMBPositive(t *testing.T) {
	if mb := liveHeapMB(); mb <= 0 {
		t.Errorf("HeapMB = %v, want positive", mb)
	}
}

func TestThroughput(t *testing.T) {
	calls := 0
	rate := throughput(100, func() { calls++ })
	if calls != 100 {
		t.Errorf("step called %d times, want 100", calls)
	}
	if rate <= 0 {
		t.Errorf("rate = %v, want positive", rate)
	}
}
