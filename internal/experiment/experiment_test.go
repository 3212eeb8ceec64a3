package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// shrink scales a quick canned figure Spec down for tests: each timing
// run lasts cycles router cycles (twice that on Figure 11a's scaled
// pipeline, as the figure doubles its cycles) and each load sweep keeps
// at most rates points, the lightest and heaviest among them. Standalone
// Specs keep their quick fidelity.
func shrink(cycles, rates int) SpecOption {
	return func(sp *Spec) {
		if sp.Mode == ModeStandalone {
			return
		}
		tm := own(&sp.Timing)
		tm.Cycles = cycles
		if tm.ScalePipeline {
			tm.Cycles *= 2
		}
		w := own(&sp.Workload)
		w.Rates = subsample(w.Rates, rates)
	}
}

func TestRunTimingBasics(t *testing.T) {
	pt := runPoint(t, NewSpec(
		WithTopology(4, 4), WithArbiters("SPAA-base"), WithPatterns("random"),
		WithRates(0.01), WithCycles(5000), WithSeed(1),
	))
	if pt.Packets == 0 || pt.Throughput <= 0 {
		t.Fatalf("empty result: %+v", pt)
	}
	if pt.AvgLatencyNS < 40 {
		t.Errorf("latency %.1f below the ~45 ns zero-load floor", pt.AvgLatencyNS)
	}
	if pt.Throughput > 2.4 {
		t.Errorf("throughput %.3f exceeds the architectural bound", pt.Throughput)
	}
}

func TestRunTimingRejectsStandaloneAlgorithms(t *testing.T) {
	_, err := runnerExec(1)(NewSpec(
		WithTopology(4, 4), WithArbiters("MCM"), WithPatterns("random"),
		WithRates(0.01), WithCycles(100), WithSeed(1),
	))
	if err == nil {
		t.Fatal("MCM accepted by the timing model")
	}
}

// throughputs runs one timing Spec and returns each series' first-point
// throughput by arbiter.
func throughputs(t *testing.T, sp Spec) map[string]float64 {
	t.Helper()
	res, err := runnerExec(0)(sp)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, s := range res.Series {
		out[s.Arbiter] = s.Points[0].Throughput
	}
	return out
}

// TestSPAABeatsWavesIn4x4 is the paper's headline timing claim at reduced
// scale: SPAA-base delivers more than PIM1 and WFA-base under load in the
// 4x4 random-traffic network.
func TestSPAABeatsWavesIn4x4(t *testing.T) {
	tput := throughputs(t, NewSpec(
		WithTopology(4, 4), WithArbiters("SPAA-base", "WFA-base", "PIM1"), WithPatterns("random"),
		WithRates(0.05), WithCycles(10000), WithSeed(1),
	))
	spaa, wfa, pim1 := tput["SPAA-base"], tput["WFA-base"], tput["PIM1"]
	if spaa <= wfa || spaa <= pim1 {
		t.Fatalf("SPAA=%.4f not above WFA=%.4f / PIM1=%.4f", spaa, wfa, pim1)
	}
}

// TestRotaryHoldsThroughputBeyondSaturation checks the Rotary Rule claim
// on the saturation companion setup (64 outstanding misses).
func TestRotaryHoldsThroughputBeyondSaturation(t *testing.T) {
	tput := throughputs(t, NewSpec(
		WithTopology(8, 8), WithArbiters("SPAA-base", "SPAA-rotary", "WFA-base", "WFA-rotary"),
		WithPatterns("random"), WithRates(0.13), WithMaxOutstanding(64), WithCycles(12000), WithSeed(1),
	))
	// The collapse deepens with simulation length; at this short horizon a
	// 40%+ advantage is already the paper's qualitative separation (full
	// 75k-cycle runs show 2-7x, see EXPERIMENTS.md).
	if base, rotary := tput["SPAA-base"], tput["SPAA-rotary"]; rotary < 1.4*base {
		t.Errorf("SPAA-rotary %.4f not well above collapsed SPAA-base %.4f", rotary, base)
	}
	if base, rotary := tput["WFA-base"], tput["WFA-rotary"]; rotary < 1.4*base {
		t.Errorf("WFA-rotary %.4f not well above collapsed WFA-base %.4f", rotary, base)
	}
}

func TestSweepProducesMonotoneOfferedRates(t *testing.T) {
	res, err := runnerExec(0)(NewSpec(
		WithTopology(4, 4), WithArbiters("SPAA-base"), WithPatterns("random"),
		WithRates(0.005, 0.02, 0.05), WithCycles(3000), WithSeed(1),
	))
	if err != nil {
		t.Fatal(err)
	}
	series := res.Series[0]
	if len(series.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(series.Points))
	}
	for i := 1; i < len(series.Points); i++ {
		if series.Points[i].Rate <= series.Points[i-1].Rate {
			t.Error("offered rates not increasing")
		}
	}
	if series.Label != "SPAA-base" {
		t.Errorf("label = %q", series.Label)
	}
}

func TestFigure8And9Tables(t *testing.T) {
	sp, res := runFigure(t, "8", 0, 0)
	if len(res.Series) != len(Figure8Kinds) {
		t.Fatalf("figure 8 series = %d", len(res.Series))
	}
	table := res.Table()
	if want := fmt.Sprintf("Figure 8 (MCM saturation load = %.2f pkts/port/cycle)", res.SaturationLoad); table.Title != want {
		t.Errorf("figure 8 title = %q, want %q", table.Title, want)
	}
	if !strings.Contains(table.Format(), "SPAA-base") {
		t.Error("figure 8 table missing SPAA column")
	}
	if len(table.Rows) != len(sp.Standalone.Values) {
		t.Errorf("figure 8 rows = %d", len(table.Rows))
	}

	sp, res = runFigure(t, "9", 0, 0)
	if len(sp.Standalone.Values) != 4 {
		t.Fatalf("figure 9 occupancies = %v", sp.Standalone.Values)
	}
	// The MCM-SPAA gap must shrink as occupancy rises (Figure 9's point).
	mcm, spaa := res.matches("MCM"), res.matches("SPAA-base")
	if len(mcm) != 4 || len(spaa) != 4 {
		t.Fatal("figure 9 missing curves")
	}
	first := mcm[0] - spaa[0]
	last := mcm[len(mcm)-1] - spaa[len(spaa)-1]
	if last >= first {
		t.Errorf("occupancy gap grew: %.2f -> %.2f", first, last)
	}
	csv := res.Table().CSV()
	if !strings.HasPrefix(csv, "occupancy,") || !strings.Contains(csv, "\n0.5,") {
		t.Errorf("CSV malformed: %q", csv)
	}
}

func TestFigure10SaturationPanel(t *testing.T) {
	sp, res := runFigure(t, "10s", 0, 0, shrink(5000, 3))
	if len(res.Series) != len(Figure10Kinds) {
		t.Fatalf("series = %d", len(res.Series))
	}
	table := res.Table()
	if len(table.Rows) != len(sp.Workload.Rates) {
		t.Fatalf("rows = %d, rates = %d", len(table.Rows), len(sp.Workload.Rates))
	}
	if !strings.Contains(table.Format(), "SPAA-rotary") {
		t.Error("panel table missing series")
	}
}

func TestRateSubsampling(t *testing.T) {
	full := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := subsample(full, 3); !reflect.DeepEqual(got, []float64{1, 5, 10}) {
		t.Fatalf("subsample = %v", got)
	}
	if ends := subsample(full, len(full)); len(ends) != len(full) {
		t.Errorf("no-op subsample changed length: %v", ends)
	}
	specs, err := FigureSpecs("10", true)
	if err != nil {
		t.Fatal(err)
	}
	if qr := specs[0].Workload.Rates; !reflect.DeepEqual(qr, []float64{0.005, 0.02, 0.04, 0.065, 0.13}) {
		t.Errorf("quick 4x4 rates = %v, want every other rate of Rates4x4 and the heaviest", qr)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tb.Format()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-column") {
		t.Errorf("format output wrong:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,long-column\n1,2\n") {
		t.Errorf("csv output wrong:\n%s", csv)
	}
}

// TestWarmupFractionSentinel pins the WarmupFraction contract: a literal
// zero keeps the historical 0.2 default, an explicit 0.2 matches it
// exactly, and the NoWarmup sentinel genuinely disables the warmup (a
// request the old zero-means-default encoding could not express).
func TestWarmupFractionSentinel(t *testing.T) {
	run := func(frac float64) ResultPoint {
		return runPoint(t, NewSpec(
			WithTopology(4, 4), WithArbiters("SPAA-base"), WithPatterns("random"),
			WithRates(0.03), WithCycles(4000), WithSeed(1), WithWarmupFraction(frac),
		))
	}
	def, explicit, none := run(0), run(0.2), run(NoWarmup)
	if !reflect.DeepEqual(def, explicit) {
		t.Errorf("WarmupFraction 0 no longer matches explicit 0.2:\n%+v\n%+v", def, explicit)
	}
	// With no warmup the collector sees every delivered packet, including
	// the ones the 20% warmup window would have discarded.
	if none.Packets <= def.Packets {
		t.Errorf("NoWarmup counted %d packets, default-warmup run counted %d", none.Packets, def.Packets)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sp := NewSpec(
		WithTopology(4, 4), WithArbiters("WFA-rotary"), WithPatterns("bit-reversal"),
		WithRates(0.03), WithCycles(4000), WithSeed(7),
	)
	if a, b := runPoint(t, sp), runPoint(t, sp); !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec diverged:\n%+v\n%+v", a, b)
	}
}
