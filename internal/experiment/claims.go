package experiment

import (
	"fmt"
	"math"
	"strings"
)

// Dataset holds every canned figure's Results by figure name ("8",
// "9", "10", "10s", "11a", "11b", "11c"), each in FigureSpecs order, so
// the paper's cross-figure claims are evaluated on one consistent set of
// runs.
type Dataset map[string][]*Result

// CollectDataset reruns the full evaluation: it runs every canned figure
// Spec (FigureSpecs at full or quick fidelity, in FigureSpecNames order)
// through exec one Spec at a time and files each Result under its
// figure. exec is whatever executes a Spec for the caller — typically a
// Runner's Run under a background context, after any study options the
// caller applies — so the worker count, progress events, and determinism
// are the executor's, exactly as in cmd/sweep's figure mode.
func CollectDataset(quick bool, exec func(Spec) (*Result, error)) (Dataset, error) {
	d := Dataset{}
	for _, name := range figureSpecNames {
		specs, err := FigureSpecs(name, quick)
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			res, err := exec(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.Name, err)
			}
			d[name] = append(d[name], res)
		}
	}
	return d, nil
}

// Verdict is one claim's evaluation.
type Verdict struct {
	ID       string // short identifier
	Paper    string // the paper's statement
	Measured string // what this reproduction measured
	OK       bool
}

// A claim reads figures, panels and series out of the Dataset; any one
// the Dataset lacks reads as NaN, which fails every comparison a claim
// makes, so the claim's verdict comes back OK: false in its usual place.

// panel returns figure fig's i-th Result, or an empty Result when the
// Dataset has none.
func (d Dataset) panel(fig string, i int) *Result {
	if rs := d[fig]; i < len(rs) && rs[i] != nil {
		return rs[i]
	}
	return &Result{}
}

// series returns the Result's series with the given label (empty when
// it has none).
func (r *Result) series(label string) ResultSeries {
	for _, s := range r.Series {
		if s.Label == label {
			return s
		}
	}
	return ResultSeries{}
}

// read applies f to a labeled series, or returns NaN when the series is
// missing or has no points.
func (r *Result) read(label string, f func(ResultSeries) float64) float64 {
	s := r.series(label)
	if len(s.Points) == 0 {
		return math.NaN()
	}
	return f(s)
}

// peak and final read a labeled series' peak and highest-load throughput.
func (r *Result) peak(label string) float64  { return r.read(label, ResultSeries.PeakThroughput) }
func (r *Result) final(label string) float64 { return r.read(label, ResultSeries.FinalThroughput) }

// firstLatency returns a timing series' average latency at its lightest
// load.
func (r *Result) firstLatency(label string) float64 {
	return r.read(label, func(s ResultSeries) float64 { return s.Points[0].AvgLatencyNS })
}

// matches returns a standalone series' matches per cycle in axis order.
func (r *Result) matches(label string) []float64 {
	var v []float64
	for _, p := range r.series(label).Points {
		v = append(v, p.MatchesPerCycle)
	}
	return v
}

func first(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return v[0]
}

func last(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return v[len(v)-1]
}

// Verify evaluates every encoded claim of the paper against the dataset.
// Each verdict's Measured string is self-contained so the results table in
// EXPERIMENTS.md can be generated mechanically.
func Verify(d Dataset) []Verdict {
	var out []Verdict
	add := func(id, paper, measured string, ok bool) {
		out = append(out, Verdict{ID: id, Paper: paper, Measured: measured, OK: ok})
	}

	// ---- Figure 8 ----
	f8 := d.panel("8", 0)
	mcm := last(f8.matches("MCM"))
	wfa := last(f8.matches("WFA-base"))
	pim := last(f8.matches("PIM"))
	pim1 := last(f8.matches("PIM1"))
	spaa := last(f8.matches("SPAA-base"))
	add("fig8-top-three",
		"the number of matches found by WFA and PIM are almost close to MCM's (§5.1)",
		fmt.Sprintf("MCM %.2f, WFA %.2f, PIM %.2f matches/cycle at saturation", mcm, wfa, pim),
		within(wfa/mcm, 0.95, 1.06) && within(pim/mcm, 0.95, 1.06))
	add("fig8-mcm-vs-spaa",
		"at the MCM saturation load, MCM/WFA/PIM find 36% more matches than SPAA",
		fmt.Sprintf("MCM/SPAA = %.2f (paper 1.36)", mcm/spaa),
		within(mcm/spaa, 1.2, 1.6))
	add("fig8-pim1-vs-spaa",
		"PIM1's number of matches is 14% higher than SPAA's",
		fmt.Sprintf("PIM1/SPAA = %.2f (paper 1.14)", pim1/spaa),
		within(pim1/spaa, 1.05, 1.45))
	add("fig8-mcm-near-seven",
		"the number of matches found by MCM is usually very close to the maximum, i.e., seven",
		fmt.Sprintf("MCM saturates at %.2f of 7", mcm),
		mcm > 6.2)

	// ---- Figure 9 ----
	f9 := d.panel("9", 0)
	g0 := first(f9.matches("MCM")) - first(f9.matches("SPAA-base"))
	g75 := last(f9.matches("MCM")) - last(f9.matches("SPAA-base"))
	add("fig9-gap-vanishes",
		"the difference between the algorithms completely disappears when 75% of the output ports are occupied",
		fmt.Sprintf("MCM-SPAA gap: %.2f at 0%% occupancy vs %.2f at 75%%", g0, g75),
		g75 < 0.25*g0)

	// ---- Figure 10: 4x4 random ----
	p4 := d.panel("10", 0)
	add("fig10-4x4-spaa-wins",
		"with random traffic SPAA-base provides about 11% higher throughput than PIM1 and WFA-base (4x4, ~83 ns)",
		fmt.Sprintf("saturation throughput: SPAA-base %.3f vs WFA-base %.3f (+%.0f%%) and PIM1 %.3f (+%.0f%%)",
			p4.peak("SPAA-base"), p4.peak("WFA-base"),
			100*(p4.peak("SPAA-base")/p4.peak("WFA-base")-1),
			p4.peak("PIM1"),
			100*(p4.peak("SPAA-base")/p4.peak("PIM1")-1)),
		p4.peak("SPAA-base") > 1.02*p4.peak("WFA-base") &&
			p4.peak("SPAA-base") > 1.02*p4.peak("PIM1"))
	add("fig10-4x4-no-collapse",
		"the 4x4 network does not show saturation behavior",
		fmt.Sprintf("SPAA-base final/peak = %.2f, WFA-base final/peak = %.2f",
			p4.final("SPAA-base")/p4.peak("SPAA-base"),
			p4.final("WFA-base")/p4.peak("WFA-base")),
		p4.final("SPAA-base") > 0.9*p4.peak("SPAA-base") &&
			p4.final("WFA-base") > 0.9*p4.peak("WFA-base"))

	// ---- Figure 10: 8x8 random ----
	p8 := d.panel("10", 1)
	add("fig10-8x8-spaa-wins",
		"in the 8x8 network SPAA-base provides about 24% higher throughput than PIM1 and WFA-base (~122 ns)",
		fmt.Sprintf("saturation throughput: SPAA-base %.3f vs WFA-base %.3f (+%.0f%%) and PIM1 %.3f (+%.0f%%)",
			p8.peak("SPAA-base"), p8.peak("WFA-base"),
			100*(p8.peak("SPAA-base")/p8.peak("WFA-base")-1),
			p8.peak("PIM1"),
			100*(p8.peak("SPAA-base")/p8.peak("PIM1")-1)),
		p8.peak("SPAA-base") > 1.02*p8.peak("WFA-base") &&
			p8.peak("SPAA-base") > 1.02*p8.peak("PIM1"))
	add("fig10-spaa-low-load-latency",
		"SPAA's shorter pipeline gives it lower latency before saturation (3 vs 4 cycles per hop)",
		fmt.Sprintf("lightest-load latency: SPAA-base %.1f ns vs WFA-base %.1f ns vs PIM1 %.1f ns",
			p8.firstLatency("SPAA-base"), p8.firstLatency("WFA-base"), p8.firstLatency("PIM1")),
		p8.firstLatency("SPAA-base") < p8.firstLatency("WFA-base") &&
			p8.firstLatency("SPAA-base") < p8.firstLatency("PIM1"))

	// ---- Saturation companion (the paper's 8x8 collapse claims) ----
	ps := d.panel("10s", 0)
	add("fig10-rotary-spaa",
		"SPAA-rotary improves throughput by 43% over SPAA-base beyond saturation (~280 ns)",
		fmt.Sprintf("final throughput: SPAA-rotary %.3f vs SPAA-base %.3f (%.1fx; 64 outstanding)",
			ps.final("SPAA-rotary"), ps.final("SPAA-base"),
			ps.final("SPAA-rotary")/ps.final("SPAA-base")),
		ps.final("SPAA-rotary") > 1.3*ps.final("SPAA-base"))
	add("fig10-rotary-wfa",
		"WFA-rotary improves throughput by 16% over WFA-base beyond saturation (~280 ns)",
		fmt.Sprintf("final throughput: WFA-rotary %.3f vs WFA-base %.3f (%.1fx; 64 outstanding)",
			ps.final("WFA-rotary"), ps.final("WFA-base"),
			ps.final("WFA-rotary")/ps.final("WFA-base")),
		ps.final("WFA-rotary") > 1.15*ps.final("WFA-base"))
	add("fig10-rotary-holds",
		"WFA-rotary's and SPAA-rotary's delivered throughputs continue to increase past the base algorithms' saturation point",
		fmt.Sprintf("rotary final/peak: SPAA %.2f, WFA %.2f (base: %.2f, %.2f)",
			ps.final("SPAA-rotary")/ps.peak("SPAA-rotary"),
			ps.final("WFA-rotary")/ps.peak("WFA-rotary"),
			ps.final("SPAA-base")/ps.peak("SPAA-base"),
			ps.final("WFA-base")/ps.peak("WFA-base")),
		ps.final("SPAA-rotary") > 0.9*ps.peak("SPAA-rotary") &&
			ps.final("WFA-rotary") > 0.9*ps.peak("WFA-rotary"))

	// ---- Figure 11a: 2x pipeline ----
	f11a := d.panel("11a", 0)
	add("fig11a-spaa-dominates",
		"with a 2x-deep, 2x-fast pipeline SPAA-rotary provides greater than 60% higher throughput than PIM1 and WFA-rotary (~100 ns)",
		fmt.Sprintf("saturation throughput: SPAA-rotary %.3f vs WFA-rotary %.3f (+%.0f%%) and PIM1 %.3f (+%.0f%%)",
			f11a.peak("SPAA-rotary"), f11a.peak("WFA-rotary"),
			100*(f11a.peak("SPAA-rotary")/f11a.peak("WFA-rotary")-1),
			f11a.peak("PIM1"),
			100*(f11a.peak("SPAA-rotary")/f11a.peak("PIM1")-1)),
		f11a.peak("SPAA-rotary") > 1.05*f11a.peak("WFA-rotary") &&
			f11a.peak("SPAA-rotary") > 1.05*f11a.peak("PIM1"))

	// ---- Figure 11b: 64 outstanding ----
	f11b := d.panel("11b", 0)
	add("fig11b-spaa-wins",
		"even at 64 outstanding misses SPAA-rotary provides roughly 13% higher throughput than WFA-rotary (~200 ns)",
		fmt.Sprintf("saturation throughput: SPAA-rotary %.3f vs WFA-rotary %.3f (+%.0f%%)",
			f11b.peak("SPAA-rotary"), f11b.peak("WFA-rotary"),
			100*(f11b.peak("SPAA-rotary")/f11b.peak("WFA-rotary")-1)),
		f11b.peak("SPAA-rotary") > 1.0*f11b.peak("WFA-rotary"))

	// ---- Figure 11c: 12x12 ----
	f11c := d.panel("11c", 0)
	add("fig11c-spaa-wins",
		"in a 12x12 network SPAA-rotary provides an 18% higher throughput than WFA-rotary (~200 ns)",
		fmt.Sprintf("saturation throughput: SPAA-rotary %.3f vs WFA-rotary %.3f (+%.0f%%)",
			f11c.peak("SPAA-rotary"), f11c.peak("WFA-rotary"),
			100*(f11c.peak("SPAA-rotary")/f11c.peak("WFA-rotary")-1)),
		f11c.peak("SPAA-rotary") > 1.0*f11c.peak("WFA-rotary"))

	// ---- §4.3 calibration ----
	add("calibration-zero-load",
		"the minimum per-packet latency in a 4x4 network with uniform traffic is about 45 ns",
		fmt.Sprintf("lightest-load average latency: %.1f ns (4x4 random, SPAA-base)",
			p4.firstLatency("SPAA-base")),
		within(p4.firstLatency("SPAA-base"), 40, 60))

	return out
}

func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

// VerdictTable formats verdicts for terminal output.
func VerdictTable(vs []Verdict) Table {
	t := Table{
		Title:   "Paper claims vs this reproduction",
		Columns: []string{"claim", "status", "measured"},
	}
	for _, v := range vs {
		status := "REPRODUCED"
		if !v.OK {
			status = "DEVIATES"
		}
		t.Rows = append(t.Rows, []string{v.ID, status, v.Measured})
	}
	return t
}

// VerdictMarkdown renders the verdicts as the EXPERIMENTS.md results table.
func VerdictMarkdown(vs []Verdict) string {
	var b strings.Builder
	b.WriteString("| # | Paper claim | Measured here | Status |\n|---|---|---|---|\n")
	for i, v := range vs {
		status := "reproduced"
		if !v.OK {
			status = "**deviates**"
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s |\n", i+1, v.Paper, v.Measured, status)
	}
	return b.String()
}
