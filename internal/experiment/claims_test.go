package experiment

import (
	"slices"
	"strings"
	"testing"
)

// TestVerifyClaimsQuick runs the whole claims pipeline at reduced scale.
// The quantitative thresholds are calibrated for full runs, so this test
// only requires the pipeline to work and the structural claims to hold;
// the full verification is run by `cmd/sweep -verify` and recorded in
// EXPERIMENTS.md.
func TestVerifyClaimsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("claims dataset is expensive")
	}
	d, err := CollectDataset(true, runnerExec(0, shrink(4000, 3)))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := Verify(d)
	if len(verdicts) < 12 {
		t.Fatalf("only %d claims encoded", len(verdicts))
	}
	ids := map[string]bool{}
	for _, v := range verdicts {
		if v.ID == "" || v.Paper == "" || v.Measured == "" {
			t.Errorf("incomplete verdict: %+v", v)
		}
		if ids[v.ID] {
			t.Errorf("duplicate claim id %q", v.ID)
		}
		ids[v.ID] = true
	}
	// Claims that must hold even at this tiny scale.
	mustHold := map[string]bool{
		"fig8-mcm-near-seven":         true,
		"fig9-gap-vanishes":           true,
		"fig10-spaa-low-load-latency": true,
	}
	for _, v := range verdicts {
		if mustHold[v.ID] && !v.OK {
			t.Errorf("claim %s failed even at reduced scale: %s", v.ID, v.Measured)
		}
	}
	// Rendering paths.
	table := VerdictTable(verdicts).Format()
	if !strings.Contains(table, "fig8-mcm-vs-spaa") {
		t.Error("table missing claim row")
	}
	md := VerdictMarkdown(verdicts)
	if !strings.Contains(md, "| 1 |") || !strings.Contains(md, "Status") {
		t.Error("markdown table malformed")
	}
}

// bnfSeries builds a timing series from (throughput, latency) pairs.
func bnfSeries(label string, pairs ...float64) ResultSeries {
	s := ResultSeries{Label: label, Arbiter: label}
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Points = append(s.Points, ResultPoint{Throughput: pairs[i], AvgLatencyNS: pairs[i+1]})
	}
	return s
}

// matchSeries builds a standalone series from matches per cycle.
func matchSeries(label string, values ...float64) ResultSeries {
	s := ResultSeries{Label: label, Arbiter: label}
	for _, v := range values {
		s.Points = append(s.Points, ResultPoint{MatchesPerCycle: v})
	}
	return s
}

// TestVerifyReadsResults runs Verify on hand-built Results, one per
// figure panel it reads, with series in no particular order and one
// claim (fig11a) set to deviate. It pins every claim ID in order, each
// verdict, and the exact measured text of one standalone and one timing
// claim; then it drops a series, every panel, and every figure.
func TestVerifyReadsResults(t *testing.T) {
	d := Dataset{
		"8": {{Series: []ResultSeries{
			matchSeries("SPAA-base", 3.7, 4.6), matchSeries("MCM", 3.8, 6.8),
			matchSeries("PIM", 3.8, 6.7), matchSeries("PIM1", 3.8, 6.0), matchSeries("WFA-base", 3.8, 6.78),
		}}},
		"9": {{Series: []ResultSeries{
			matchSeries("MCM", 6.8, 5.2, 3.5, 1.7), matchSeries("SPAA-base", 4.6, 3.8, 2.8, 1.6),
		}}},
		"10": {
			{Series: []ResultSeries{
				bnfSeries("PIM1", 0.1, 53, 0.86, 140, 0.85, 310),
				bnfSeries("WFA-base", 0.1, 52, 0.80, 150, 0.76, 320),
				bnfSeries("SPAA-base", 0.1, 49.5, 0.92, 120, 0.90, 300),
			}},
			{Series: []ResultSeries{
				bnfSeries("SPAA-base", 0.05, 78.3, 0.57, 200),
				bnfSeries("WFA-base", 0.05, 90.3, 0.55, 210),
				bnfSeries("PIM1", 0.05, 91, 0.55, 215),
			}},
		},
		"10s": {{Series: []ResultSeries{
			bnfSeries("SPAA-base", 0.3, 90, 0.45, 400, 0.22, 900),
			bnfSeries("SPAA-rotary", 0.3, 100, 0.56, 300, 0.55, 400),
			bnfSeries("WFA-base", 0.3, 100, 0.44, 400, 0.31, 800),
			bnfSeries("WFA-rotary", 0.3, 110, 0.54, 320, 0.53, 420),
		}}},
		"11a": {{Series: []ResultSeries{
			bnfSeries("PIM1", 0.1, 70, 0.57, 230),
			bnfSeries("WFA-rotary", 0.1, 70, 0.58, 220),
			bnfSeries("SPAA-rotary", 0.1, 60, 0.60, 200),
		}}},
		"11b": {{Series: []ResultSeries{
			bnfSeries("WFA-rotary", 0.1, 90, 0.566, 300),
			bnfSeries("SPAA-rotary", 0.1, 80, 0.57, 280),
		}}},
		"11c": {{Series: []ResultSeries{
			bnfSeries("SPAA-rotary", 0.05, 100, 0.412, 300),
			bnfSeries("WFA-rotary", 0.05, 110, 0.40, 320),
		}}},
	}
	verdicts := Verify(d)
	checkVerdicts(t, verdicts, "fig11a-spaa-dominates")
	measured := map[string]string{}
	for _, v := range verdicts {
		measured[v.ID] = v.Measured
	}
	for id, text := range map[string]string{
		"fig8-mcm-vs-spaa":    "MCM/SPAA = 1.48 (paper 1.36)",
		"fig10-4x4-spaa-wins": "saturation throughput: SPAA-base 0.920 vs WFA-base 0.800 (+15%) and PIM1 0.860 (+7%)",
	} {
		if measured[id] != text {
			t.Errorf("%s measured %q, want %q", id, measured[id], text)
		}
	}

	// A claim whose figure, panel or series is missing fails in its
	// usual place instead of panicking. Without its WFA-rotary series,
	// 11b's claim would otherwise compare SPAA-rotary against zero.
	d["11b"][0].Series = d["11b"][0].Series[1:]
	checkVerdicts(t, Verify(d), "fig11a-spaa-dominates", "fig11b-spaa-wins")
	checkVerdicts(t, Verify(Dataset{"8": {{}}, "9": {{}}}), claimIDs...)
	checkVerdicts(t, Verify(Dataset{}), claimIDs...)
}

// claimIDs is every claim Verify encodes, in verdict order.
var claimIDs = []string{
	"fig8-top-three", "fig8-mcm-vs-spaa", "fig8-pim1-vs-spaa", "fig8-mcm-near-seven",
	"fig9-gap-vanishes", "fig10-4x4-spaa-wins", "fig10-4x4-no-collapse", "fig10-8x8-spaa-wins",
	"fig10-spaa-low-load-latency", "fig10-rotary-spaa", "fig10-rotary-wfa", "fig10-rotary-holds",
	"fig11a-spaa-dominates", "fig11b-spaa-wins", "fig11c-spaa-wins", "calibration-zero-load",
}

// checkVerdicts fails t unless vs holds every claim in order, each OK
// exactly when deviates does not list it.
func checkVerdicts(t *testing.T, vs []Verdict, deviates ...string) {
	t.Helper()
	if len(vs) != len(claimIDs) {
		t.Fatalf("%d verdicts, want %d", len(vs), len(claimIDs))
	}
	for i, v := range vs {
		ok := !slices.Contains(deviates, claimIDs[i])
		if v.ID != claimIDs[i] || v.OK != ok {
			t.Errorf("verdict %d = %s ok=%v (%s), want %s ok=%v", i+1, v.ID, v.OK, v.Measured, claimIDs[i], ok)
		}
	}
}
