package experiment

import (
	"strings"
	"testing"
)

func TestPlotRendersAllSeries(t *testing.T) {
	r := &Result{
		Spec: Spec{Name: "test panel"},
		Series: []ResultSeries{
			{Label: "PIM1", Points: []ResultPoint{{Throughput: 0.1, AvgLatencyNS: 50}, {Throughput: 0.5, AvgLatencyNS: 200}}},
			{Label: "SPAA", Points: []ResultPoint{{Throughput: 0.2, AvgLatencyNS: 40}, {Throughput: 0.6, AvgLatencyNS: 180}}},
		},
	}
	out := r.Plot(60, 15)
	if !strings.Contains(out, "test panel") {
		t.Error("plot missing title")
	}
	if !strings.Contains(out, "P = PIM1") || !strings.Contains(out, "w = SPAA") {
		t.Errorf("plot missing legend:\n%s", out)
	}
	if strings.Count(out, "P") < 2 {
		t.Errorf("plot missing data glyphs:\n%s", out)
	}
	// Height: title + axis note + 15 grid rows + axis + legend.
	if lines := strings.Count(out, "\n"); lines != 19 {
		t.Errorf("plot has %d lines, want 19", lines)
	}
}

func TestPlotEmptyPanel(t *testing.T) {
	r := &Result{Spec: Spec{Name: "empty"}}
	if out := r.Plot(40, 10); !strings.Contains(out, "no data") {
		t.Errorf("empty plot output: %q", out)
	}
}

func TestPlotClampsTinyDimensions(t *testing.T) {
	r := &Result{
		Spec: Spec{Name: "tiny"},
		Series: []ResultSeries{
			{Label: "x", Points: []ResultPoint{{Throughput: 0.3, AvgLatencyNS: 100}}},
		},
	}
	out := r.Plot(1, 1) // clamped to sane minimums, must not panic
	if len(out) == 0 {
		t.Error("clamped plot empty")
	}
}
