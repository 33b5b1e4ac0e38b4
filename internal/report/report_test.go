package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. 3: execution time", "rate", "post (s)", "in-situ (s)", "savings")
	tb.AddRow("8h", "2692", "1255", "53.4%")
	tb.AddRow("24h", "1299", "820", "36.9%")
	out := tb.String()
	if !strings.Contains(out, "Fig. 3") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "rate") || !strings.Contains(out, "savings") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "53.4%") {
		t.Error("missing cell")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("lines = %d: %q", len(lines), out)
	}
	// Columns align: header and rule have the same width.
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("rule width %d != header width %d", len(lines[2]), len(lines[1]))
	}
}

func TestTableRowPaddingAndTruncation(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	tb.AddRow("x", "y", "extra-dropped")
	out := tb.String()
	if strings.Contains(out, "extra-dropped") {
		t.Error("over-long row not truncated")
	}
	if !strings.Contains(out, "only") {
		t.Error("short row dropped")
	}
	// No title line when title is empty.
	if strings.HasPrefix(out, "\n") {
		t.Error("leading blank line for empty title")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.512) != "51.2%" {
		t.Errorf("Pct = %q", Pct(0.512))
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline not empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline shape = %q", s)
	}
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	if flat[0] != '▁' || flat[1] != '▁' {
		t.Errorf("flat sparkline = %q", string(flat))
	}
}
