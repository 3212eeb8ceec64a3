package experiment

import (
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
	o := Options{Quick: true, CyclesOverride: 4000, MaxRatePoints: 3, Seed: 1}
	d, err := CollectDataset(o, runnerExec(0))
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
