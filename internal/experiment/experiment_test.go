package experiment

import (
	"strings"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/traffic"
)

// benchOpts keeps experiment tests fast.
var benchOpts = Options{Quick: true, CyclesOverride: 5000, MaxRatePoints: 3, Seed: 1}

func TestRunTimingBasics(t *testing.T) {
	res, err := RunTiming(TimingSetup{
		Width: 4, Height: 4, Kind: core.KindSPAABase, Pattern: traffic.Uniform,
		Rate: 0.01, Cycles: 5000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.Throughput <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.AvgLatencyNS < 40 {
		t.Errorf("latency %.1f below the ~45 ns zero-load floor", res.AvgLatencyNS)
	}
	if res.Throughput > 2.4 {
		t.Errorf("throughput %.3f exceeds the architectural bound", res.Throughput)
	}
}

func TestRunTimingRejectsStandaloneAlgorithms(t *testing.T) {
	_, err := RunTiming(TimingSetup{
		Width: 4, Height: 4, Kind: core.KindMCM, Pattern: traffic.Uniform,
		Rate: 0.01, Cycles: 100, Seed: 1,
	})
	if err == nil {
		t.Fatal("MCM accepted by the timing model")
	}
}

// TestSPAABeatsWavesIn4x4 is the paper's headline timing claim at reduced
// scale: SPAA-base delivers more than PIM1 and WFA-base under load in the
// 4x4 random-traffic network.
func TestSPAABeatsWavesIn4x4(t *testing.T) {
	run := func(kind core.Kind) float64 {
		res, err := RunTiming(TimingSetup{
			Width: 4, Height: 4, Kind: kind, Pattern: traffic.Uniform,
			Rate: 0.05, Cycles: 10000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	spaa := run(core.KindSPAABase)
	wfa := run(core.KindWFABase)
	pim1 := run(core.KindPIM1)
	if spaa <= wfa || spaa <= pim1 {
		t.Fatalf("SPAA=%.4f not above WFA=%.4f / PIM1=%.4f", spaa, wfa, pim1)
	}
}

// TestRotaryHoldsThroughputBeyondSaturation checks the Rotary Rule claim
// on the saturation companion setup (64 outstanding misses).
func TestRotaryHoldsThroughputBeyondSaturation(t *testing.T) {
	run := func(kind core.Kind) float64 {
		res, err := RunTiming(TimingSetup{
			Width: 8, Height: 8, Kind: kind, Pattern: traffic.Uniform,
			Rate: 0.13, MaxOutstanding: 64, Cycles: 12000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	// The collapse deepens with simulation length; at this short horizon a
	// 40%+ advantage is already the paper's qualitative separation (full
	// 75k-cycle runs show 2-7x, see EXPERIMENTS.md).
	if base, rotary := run(core.KindSPAABase), run(core.KindSPAARotary); rotary < 1.4*base {
		t.Errorf("SPAA-rotary %.4f not well above collapsed SPAA-base %.4f", rotary, base)
	}
	if base, rotary := run(core.KindWFABase), run(core.KindWFARotary); rotary < 1.4*base {
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
	series := res.Panel().Series[0]
	if len(series.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(series.Points))
	}
	for i := 1; i < len(series.Points); i++ {
		if series.Points[i].OfferedRate <= series.Points[i-1].OfferedRate {
			t.Error("offered rates not increasing")
		}
	}
	if series.Label != "SPAA-base" {
		t.Errorf("label = %q", series.Label)
	}
}

func TestFigure8And9Tables(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	sp, res := runFigure(t, o, "8", 0, 0)
	f8 := Figure8Result{
		LoadFractions:  sp.Standalone.Values,
		SaturationLoad: res.SaturationLoad,
		Curves:         res.Curves(),
	}
	if len(f8.Curves) != len(Figure8Kinds) {
		t.Fatalf("figure 8 curves = %d", len(f8.Curves))
	}
	table := f8.Table()
	if !strings.Contains(table.Format(), "SPAA-base") {
		t.Error("figure 8 table missing SPAA column")
	}
	if len(table.Rows) != len(f8.LoadFractions) {
		t.Errorf("figure 8 rows = %d", len(table.Rows))
	}

	sp, res = runFigure(t, o, "9", 0, 0)
	f9 := Figure9Result{Occupancies: sp.Standalone.Values, Curves: res.Curves()}
	if len(f9.Occupancies) != 4 {
		t.Fatalf("figure 9 occupancies = %v", f9.Occupancies)
	}
	// The MCM-SPAA gap must shrink as occupancy rises (Figure 9's point).
	var mcm, spaa []float64
	for _, c := range f9.Curves {
		switch c.Label {
		case "MCM":
			mcm = c.Values
		case "SPAA-base":
			spaa = c.Values
		}
	}
	if mcm == nil || spaa == nil {
		t.Fatal("figure 9 missing curves")
	}
	first := mcm[0] - spaa[0]
	last := mcm[len(mcm)-1] - spaa[len(spaa)-1]
	if last >= first {
		t.Errorf("occupancy gap grew: %.2f -> %.2f", first, last)
	}
	csv := f9.Table().CSV()
	if !strings.Contains(csv, "occupancy,") {
		t.Errorf("CSV header malformed: %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

func TestFigure10SaturationPanel(t *testing.T) {
	_, res := runFigure(t, benchOpts, "10s", 0, 0)
	p := res.Panel()
	if len(p.Series) != len(Figure10Kinds) {
		t.Fatalf("series = %d", len(p.Series))
	}
	table := p.Table()
	if len(table.Rows) != len(p.Rates) {
		t.Fatalf("rows = %d, rates = %d", len(table.Rows), len(p.Rates))
	}
	if !strings.Contains(table.Format(), "SPAA-rotary") {
		t.Error("panel table missing series")
	}
}

func TestRateSubsampling(t *testing.T) {
	full := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	o := Options{MaxRatePoints: 3}
	got := o.rates(full)
	if len(got) != 3 || got[0] != 1 || got[2] != 10 {
		t.Fatalf("subsample = %v", got)
	}
	if ends := (Options{}).rates(full); len(ends) != len(full) {
		t.Errorf("no-op subsample changed length: %v", ends)
	}
	q := Options{Quick: true}
	if qr := q.rates(full); len(qr) != 5 || qr[0] != 1 || qr[4] != 10 {
		t.Errorf("quick subsample = %v", qr)
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
	base := TimingSetup{
		Width: 4, Height: 4, Kind: core.KindSPAABase, Pattern: traffic.Uniform,
		Rate: 0.03, Cycles: 4000, Seed: 1,
	}
	run := func(frac float64) TimingResult {
		s := base
		s.WarmupFraction = frac
		res, err := RunTiming(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, explicit, none := run(0), run(0.2), run(NoWarmup)
	if def.Point != explicit.Point {
		t.Errorf("WarmupFraction 0 no longer matches explicit 0.2:\n%+v\n%+v", def.Point, explicit.Point)
	}
	// With no warmup the collector sees every delivered packet, including
	// the ones the 20% warmup window would have discarded.
	if none.Packets <= def.Packets {
		t.Errorf("NoWarmup counted %d packets, default-warmup run counted %d", none.Packets, def.Packets)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s := TimingSetup{
		Width: 4, Height: 4, Kind: core.KindWFARotary, Pattern: traffic.BitReversal,
		Rate: 0.03, Cycles: 4000, Seed: 7,
	}
	a, err := RunTiming(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunTiming(s)
	if a.Point != b.Point || a.Completed != b.Completed || a.Collisions != b.Collisions {
		t.Fatalf("same setup diverged:\n%+v\n%+v", a, b)
	}
}
