package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableFloatFormatting(t *testing.T) {
	tb := newTable("x")
	tb.AddRow(0.123456789)
	tb.AddRow(1234567.0)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.123") {
		t.Errorf("float not compacted: %q", buf.String())
	}
}

func TestTableRaggedRows(t *testing.T) {
	// Rows shorter than the header must not panic and must render.
	tb := newTable("a", "b", "c")
	tb.AddRow(1)
	tb.AddRow(1, 2, 3)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 4 {
		t.Errorf("unexpected output:\n%s", buf.String())
	}
}

func TestSeriesMultiColumn(t *testing.T) {
	s := newSeries("multi", "step", "a", "b", "c")
	s.Add(1, 2, 3, 4)
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1\t2\t3\t4") {
		t.Errorf("point not rendered: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "step\ta\tb\tc") {
		t.Errorf("labels not rendered: %q", buf.String())
	}
}
