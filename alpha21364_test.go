package alpha21364

import (
	"context"
	"testing"
)

func TestFacadeKindsParse(t *testing.T) {
	for _, k := range []Kind{MCM, PIM, PIM1, WFABase, WFARotary, SPAABase, SPAARotary, OPF} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestFacadeStandaloneRun(t *testing.T) {
	cfg := DefaultStandaloneConfig(0.5)
	cfg.Cycles = 200
	res := RunStandalone(SPAABase, cfg)
	if res.MatchesPerCycle <= 0 {
		t.Fatalf("no matches: %+v", res)
	}
}

func TestFacadeMatrixAndArbiter(t *testing.T) {
	m := NewRouterMatrix()
	m.Set(0, 3, 1, 42, 0)
	m.Set(4, 3, 2, 43, 0)
	grants := NewArbiter(SPAABase, NewRNG(1)).Arbitrate(m)
	if len(grants) != 1 || grants[0].Col != 3 {
		t.Fatalf("grants = %+v", grants)
	}
	// Oldest wins: key 42 has the smaller age.
	if grants[0].Cell.Key != 42 {
		t.Errorf("granted key %d, want the older 42", grants[0].Cell.Key)
	}
}

func TestFacadeSweep(t *testing.T) {
	res, err := NewRunner().Run(context.Background(), NewSpec(
		WithTopology(4, 4), WithArbiters(PIM1.String()), WithPatterns("random"),
		WithRates(0.01, 0.03), WithCycles(2500), WithSeed(1),
	))
	if err != nil {
		t.Fatal(err)
	}
	points := res.Series[0].Points
	if len(points) != 2 || points[1].Throughput <= points[0].Throughput {
		t.Fatalf("sweep points wrong: %+v", points)
	}
}

func TestFacadeMCMSaturationLoad(t *testing.T) {
	cfg := DefaultStandaloneConfig(0)
	cfg.Cycles = 200
	if sat := MCMSaturationLoad(cfg); sat <= 0 || sat > 1 {
		t.Fatalf("saturation load = %v", sat)
	}
}
