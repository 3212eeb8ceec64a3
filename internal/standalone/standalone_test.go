package standalone

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
)

func quickCfg(load float64) Config {
	cfg := DefaultConfig(load)
	cfg.Cycles = 400
	return cfg
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg(0.8)
	a := Run(core.KindSPAABase, cfg)
	b := Run(core.KindSPAABase, cfg)
	if a != b {
		t.Fatalf("same seed gave different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 2
	c := Run(core.KindSPAABase, cfg)
	if a.MatchesPerCycle == c.MatchesPerCycle && a.MeanQueueLen == c.MeanQueueLen {
		t.Error("different seeds gave identical results (suspicious)")
	}
}

func TestMatchesBoundedByArrivalsAndOutputs(t *testing.T) {
	for _, kind := range []core.Kind{core.KindMCM, core.KindSPAABase, core.KindPIM1, core.KindWFABase} {
		for _, load := range []float64{0.1, 0.5, 1.0} {
			cfg := quickCfg(load)
			r := Run(kind, cfg)
			if r.MatchesPerCycle > float64(ports.NumOut) {
				t.Errorf("%v load %.1f: %.2f matches/cycle exceeds 7 outputs", kind, load, r.MatchesPerCycle)
			}
			// Long-run matches cannot exceed accepted arrivals (conservation).
			if r.MatchesPerCycle > r.OfferedPerCycle+0.5 {
				t.Errorf("%v load %.1f: matches %.2f exceed offered %.2f", kind, load, r.MatchesPerCycle, r.OfferedPerCycle)
			}
		}
	}
}

func TestLowLoadAllAlgorithmsEqual(t *testing.T) {
	// With almost no contention every algorithm matches essentially every
	// arrival; the algorithms must agree closely.
	var rates []float64
	for _, kind := range []core.Kind{core.KindMCM, core.KindWFABase, core.KindPIM1, core.KindSPAABase} {
		cfg := quickCfg(0.05)
		cfg.Cycles = 2000
		r := Run(kind, cfg)
		rates = append(rates, r.MatchesPerCycle)
		if r.MatchesPerCycle < 0.8*r.OfferedPerCycle {
			t.Errorf("%v at low load matched %.3f of %.3f offered", kind, r.MatchesPerCycle, r.OfferedPerCycle)
		}
	}
	for i := 1; i < len(rates); i++ {
		if diff := rates[i] - rates[0]; diff > 0.05 || diff < -0.05 {
			t.Errorf("low-load rates diverge: %v", rates)
		}
	}
}

// TestFigure8Ordering checks the saturation-load ordering of Figure 8:
// MCM ~ WFA ~ PIM > PIM1 > SPAA, with the paper's approximate gaps
// (MCM ~ +36% over SPAA, PIM1 ~ +14% over SPAA).
func TestFigure8Ordering(t *testing.T) {
	run := func(kind core.Kind) float64 {
		cfg := DefaultConfig(1.0)
		return Run(kind, cfg).MatchesPerCycle
	}
	mcm := run(core.KindMCM)
	wfa := run(core.KindWFABase)
	pim := run(core.KindPIM)
	pim1 := run(core.KindPIM1)
	spaa := run(core.KindSPAABase)

	// MCM, WFA and full PIM are nearly identical in the paper ("the number
	// of matches found by WFA and PIM are almost close to that found by
	// MCM"); in a steady-state run their queue states evolve independently,
	// so allow a small band around equality.
	if diff := mcm - wfa; diff > 0.35 || diff < -0.35 {
		t.Fatalf("MCM and WFA should be nearly equal: MCM=%.2f WFA=%.2f", mcm, wfa)
	}
	if diff := mcm - pim; diff > 0.35 || diff < -0.35 {
		t.Fatalf("MCM and PIM should be nearly equal: MCM=%.2f PIM=%.2f", mcm, pim)
	}
	if !(mcm > pim1+0.3 && wfa > pim1+0.3 && pim > pim1+0.3 && pim1 > spaa+0.3) {
		t.Fatalf("ordering violated: MCM=%.2f WFA=%.2f PIM=%.2f PIM1=%.2f SPAA=%.2f",
			mcm, wfa, pim, pim1, spaa)
	}
	if ratio := mcm / spaa; ratio < 1.15 || ratio > 1.65 {
		t.Errorf("MCM/SPAA = %.2f, paper reports ~1.36", ratio)
	}
	if ratio := pim1 / spaa; ratio < 1.02 || ratio > 1.35 {
		t.Errorf("PIM1/SPAA = %.2f, paper reports ~1.14", ratio)
	}
	// MCM should be close to the seven-output maximum at saturation.
	if mcm < 6.0 {
		t.Errorf("MCM at saturation = %.2f, expected close to 7", mcm)
	}
}

// TestFigure9OccupancyConvergence checks that the algorithms' matching
// capabilities converge as output-port occupancy rises, disappearing at
// 75% occupancy (Figure 9).
func TestFigure9OccupancyConvergence(t *testing.T) {
	gap := func(occ float64) float64 {
		cfg := DefaultConfig(1.0)
		cfg.Occupancy = occ
		mcm := Run(core.KindMCM, cfg).MatchesPerCycle
		spaa := Run(core.KindSPAABase, cfg).MatchesPerCycle
		return mcm - spaa
	}
	g0 := gap(0)
	g50 := gap(0.5)
	g75 := gap(0.75)
	if !(g0 > g50 && g50 > g75-0.1) {
		t.Fatalf("gaps not shrinking with occupancy: %.2f, %.2f, %.2f", g0, g50, g75)
	}
	if g75 > 0.45 {
		t.Errorf("MCM-SPAA gap at 75%% occupancy = %.2f, paper says it disappears", g75)
	}
}

func TestOccupancyReducesThroughput(t *testing.T) {
	cfg := DefaultConfig(1.0)
	cfg.Cycles = 500
	free := Run(core.KindMCM, cfg)
	cfg.Occupancy = 0.75
	busy := Run(core.KindMCM, cfg)
	if busy.MatchesPerCycle >= free.MatchesPerCycle {
		t.Fatalf("75%% occupancy did not reduce matches: %.2f vs %.2f",
			busy.MatchesPerCycle, free.MatchesPerCycle)
	}
	// With 75% of ports busy, roughly a quarter of capacity remains.
	if busy.MatchesPerCycle > 0.45*free.MatchesPerCycle {
		t.Errorf("busy matches %.2f look too high vs free %.2f", busy.MatchesPerCycle, free.MatchesPerCycle)
	}
}

func TestQueuesDrainAtModerateLoad(t *testing.T) {
	cfg := quickCfg(0.4)
	cfg.Cycles = 3000
	r := Run(core.KindSPAABase, cfg)
	// Offered ~3.2 packets/cycle across 8 ports; SPAA sustains ~4.9, so
	// queues must stay short and nothing should be dropped.
	if r.DroppedPerCycle > 0 {
		t.Errorf("drops at moderate load: %.3f/cycle", r.DroppedPerCycle)
	}
	if r.MeanQueueLen > 60 {
		t.Errorf("mean queue length %.1f at load 0.4 — not draining", r.MeanQueueLen)
	}
}

func TestMCMSaturationLoadReasonable(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.Cycles = 400
	sat := MCMSaturationLoad(cfg)
	if sat < 0.3 || sat > 1.0 {
		t.Fatalf("MCM saturation load = %.2f, expected within (0.3, 1.0]", sat)
	}
}

func TestWindowZeroPanicsAvoided(t *testing.T) {
	// A window of 1 is the degenerate oldest-only picker; it must still run.
	cfg := quickCfg(0.9)
	cfg.Window = 1
	r := Run(core.KindSPAABase, cfg)
	if r.MatchesPerCycle <= 0 {
		t.Error("window=1 run produced no matches")
	}
}

func TestRunPanicsOnZeroCycles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with Cycles=0 should panic")
		}
	}()
	Run(core.KindMCM, Config{})
}

func TestRunPanicsOnQueueCapBeyondHandles(t *testing.T) {
	if h := handle(ports.NumIn-1, maxQueueLen-1); h != math.MaxInt32 {
		t.Fatalf("largest handle %d, want %d", h, math.MaxInt32)
	}
	defer func() {
		if recover() == nil {
			t.Error("Run with handles beyond int32 should panic")
		}
	}()
	// The check comes before the queues are allocated.
	cfg := quickCfg(1.0)
	cfg.QueueCap = maxQueueLen
	Run(core.KindMCM, cfg)
}

func TestMatrixInvariantsDuringRun(t *testing.T) {
	// Drive the model manually, as runArbiter does. The matrix each cycle
	// arbitrates on must equal a from-scratch build of the same queues
	// with that cycle's busy outputs masked, satisfy the builder
	// invariants and respect the connection matrix; while it is live, it
	// must also equal the all-free build after every arrival phase and
	// every drain.
	for _, tc := range []struct {
		name      string
		window    int
		occupancy float64
	}{
		{"default", 316, 0},
		{"window 4", 4, 0},
		{"occupancy 0.25", 316, 0.25},
		{"occupancy 0.5", 316, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(1.0)
			cfg.Window = tc.window
			m := newModel(cfg)
			arb := core.New(core.KindMCM, sim.NewRNG(1))
			occRng := sim.NewRNG(2)
			rebuilt := core.NewRouterMatrix()
			check := func(cycle int64, phase string, busy ports.OutMask) {
				t.Helper()
				m.build(rebuilt, busy)
				if err := sameCells(m.matrix, rebuilt); err != nil {
					t.Fatalf("cycle %d after %s: matrix %v", cycle, phase, err)
				}
				if err := m.matrix.Validate(); err != nil {
					t.Fatalf("cycle %d after %s: %v", cycle, phase, err)
				}
				for r := 0; r < m.matrix.Rows; r++ {
					for c := 0; c < m.matrix.Cols; c++ {
						if m.matrix.At(r, c).Valid && !cfg.Conn[r].Has(ports.Out(c)) {
							t.Fatalf("cell (%d,%d) set but crossbar not connected", r, c)
						}
					}
				}
			}
			free := 0
			busy := busyOutputs(occRng, tc.occupancy)
			for cycle := int64(0); cycle < 400; cycle++ {
				m.arrive(cycle)
				if !m.stale {
					check(cycle, "arrivals", 0)
				}
				if busy == 0 {
					free++
				}
				mat := m.matrixFor(busy)
				check(cycle, "the matrix build", busy)
				grants := arb.Arbitrate(mat)
				// Draw the next cycle's busy outputs ahead, as runArbiter does.
				if busy = busyOutputs(occRng, tc.occupancy); busy != 0 {
					m.stale = true
				}
				if missing := m.drain(grants); missing != 0 {
					t.Fatalf("cycle %d: %d grant(s) named packets not queued", cycle, missing)
				}
				if !m.stale {
					check(cycle, "grants", 0)
				}
			}
			if free == 0 {
				t.Fatal("no cycle had every output free")
			}
		})
	}
}

// TestRunCheckedDigest pins the checked-run Results over a table that
// reaches what no experiment golden does: picker windows shorter than the
// queue (no Spec sets Window), busy outputs, small queues and the full
// connection matrix. A change to how the model builds its matrix or
// drains grants must leave every Result bit-identical. Every saturated
// 40-packet queue must compact, so the checked runs cover the rebuild
// that follows a compaction.
func TestRunCheckedDigest(t *testing.T) {
	compactions := 0
	testHookCompact = func() { compactions++ }
	defer func() { testHookCompact = nil }()
	const want = "49668ce9668063059a9e68caf53fad06daa89c47e7da8242953511d33d872086"
	kinds := []core.Kind{
		core.KindMCM, core.KindWFABase, core.KindPIM, core.KindPIM1, core.KindSPAABase,
		core.KindWFARotary, core.KindSPAARotary,
	}
	conns := []ports.ConnectionMatrix{ports.DefaultConnectionMatrix(), ports.FullConnectionMatrix()}
	h := sha256.New()
	for _, kind := range kinds {
		for _, load := range []float64{0.5, 1.0} {
			for _, occ := range []float64{0, 0.5} {
				for _, window := range []int{4, 316} {
					for _, queueCap := range []int{40, 316} {
						for ci, conn := range conns {
							cfg := DefaultConfig(load)
							cfg.Cycles = 600
							cfg.Occupancy = occ
							cfg.Window = window
							cfg.QueueCap = queueCap
							cfg.Conn = conn
							before := compactions
							r, err := RunChecked(kind, cfg)
							if err != nil {
								t.Fatalf("%v load %g occupancy %g window %d cap %d conn %d: %v",
									kind, load, occ, window, queueCap, ci, err)
							}
							if load == 1.0 && queueCap == 40 && compactions == before {
								t.Fatalf("%v load 1 occupancy %g window %d cap 40 conn %d: no queue compacted",
									kind, occ, window, ci)
							}
							fmt.Fprintf(h, "%g %g %d %d %d %+v\n", load, occ, window, queueCap, ci, r)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("checked-run digest %s, want %s", got, want)
	}
}

// TestDrainCountsMissingGrants checks that a grant naming no queued
// packet counts as missing and leaves the queues and the live matrix as
// they were: the right handle with a wrong age or key, and handles that
// name a hole, the index one past tail, the index before head, or a
// queued packet's index with another port.
func TestDrainCountsMissingGrants(t *testing.T) {
	m := newModel(quickCfg(1.0))
	for cycle := int64(0); cycle < 20; cycle++ {
		m.arrive(cycle)
	}
	in := ports.In(0)
	q := &m.queues[in]
	// Grant the packets at indexes 0 and 2: head moves to 1, and index 2
	// becomes a hole between head and tail.
	type packet struct {
		age int64
		key uint64
	}
	at := func(i int) packet { return packet{q.age[i], q.key[i]} }
	first, hole := at(0), at(2)
	for i, p := range []packet{first, hole} {
		if !m.remove(handle(in, 2*i), p.age, p.key) {
			t.Fatalf("queued packet at index %d not removed", 2*i)
		}
	}
	if q.head != 1 || q.live(2) {
		t.Fatalf("head %d, index 2 live %v: want head 1 and a hole at 2", q.head, q.live(2))
	}
	head := at(q.head)
	before := snapshotQueues(m)
	queued := m.totalQueued()
	for _, tc := range []struct {
		name string
		h    int32
		p    packet
	}{
		{"wrong age", handle(in, q.head), packet{1000, head.key}},
		{"wrong key", handle(in, q.head), packet{head.age, head.key + 1000}},
		{"hole", handle(in, 2), hole},
		{"past tail", handle(in, q.tail), at(q.tail)},
		{"before head", handle(in, q.head-1), first},
		{"wrong port", handle(in+1, q.head), head},
	} {
		g := core.Grant{Cell: core.Cell{Valid: true, Age: tc.p.age, Key: tc.p.key, Payload: tc.h}}
		if missing := m.drain([]core.Grant{g}); missing != 1 {
			t.Fatalf("%s: grant %+v: %d missing, want 1", tc.name, g.Cell, missing)
		}
	}
	if m.totalQueued() != queued {
		t.Fatalf("queued %d after missing grants, want %d", m.totalQueued(), queued)
	}
	if after := snapshotQueues(m); !reflect.DeepEqual(after, before) {
		t.Fatal("missing grants changed a queue")
	}
	rebuilt := core.NewRouterMatrix()
	m.build(rebuilt, 0)
	if err := sameCells(m.matrix, rebuilt); err != nil {
		t.Fatalf("live matrix after missing grants: %v", err)
	}
}

// snapshotQueues copies every queue's positions and counts, and the
// contents of its arrays from head to tail.
func snapshotQueues(m *model) []spktQueue {
	var out []spktQueue
	for _, q := range m.queues {
		q.age = append([]int64(nil), q.age[q.head:q.tail]...)
		q.key = append([]uint64(nil), q.key[q.head:q.tail]...)
		q.dst = append([]uint8(nil), q.dst[q.head:q.tail]...)
		out = append(out, q)
	}
	return out
}

// TestSameCellsNamesFirstDifference checks the checked run's live-matrix
// comparison on each kind of difference it reports.
func TestSameCellsNamesFirstDifference(t *testing.T) {
	want := core.NewRouterMatrix()
	want.SetMany(3, 0b101, 7, 42, 1)
	for _, tc := range []struct {
		name string
		set  func(m *core.Matrix)
		err  string
	}{
		{"equal", func(m *core.Matrix) { m.SetMany(3, 0b101, 7, 42, 1) }, ""},
		{"validity", func(m *core.Matrix) { m.Set(3, 0, 7, 42, 1) }, "row 3 validity 0x1, rebuild 0x5"},
		{"key", func(m *core.Matrix) { m.SetMany(3, 0b101, 7, 42, 1); m.Set(3, 2, 7, 43, 1) }, "cell (3,2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := core.NewRouterMatrix()
			tc.set(got)
			err := sameCells(got, want)
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("unexpected difference: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("error %v, want one containing %q", err, tc.err)
			}
		})
	}
}
