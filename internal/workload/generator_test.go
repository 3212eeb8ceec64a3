package workload

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/network"
	"alpha21364/internal/packet"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// paperConfig is the paper's §4.2 workload on a 4x4 torus: the named
// destination pattern, Bernoulli arrivals at rate, the coherence model's
// defaults (70% 2-hop, 73 ns memory, 25-cycle L2), and the 21364's 16
// outstanding misses per processor.
func paperConfig(t *testing.T, pattern string, rate float64) Config {
	t.Helper()
	pat, err := NewPattern(pattern, topology.NewTorus(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Pattern:        pat,
		Process:        NewBernoulli(rate),
		Model:          NewCoherence(),
		MaxOutstanding: 16,
		Seed:           1,
	}
}

// rig builds a 4x4 network plus generator on a fresh engine, the
// generator ticking on the router clock.
func rig(t *testing.T, kind core.Kind, cfg Config) (*Generator, *network.Network, *sim.Engine, *stats.Collector) {
	t.Helper()
	eng := sim.NewEngine()
	col := stats.NewCollector(0)
	net, err := network.New(network.Config{Width: 4, Height: 4, Router: router.DefaultConfig(kind)}, eng, col)
	if err != nil {
		t.Fatal(err)
	}
	g := New(cfg, net, eng, col)
	eng.AddClock(router.DefaultConfig(kind).RouterPeriod, 0, g)
	return g, net, eng, col
}

func TestTransactionsComplete(t *testing.T) {
	g, net, eng, col := rig(t, core.KindSPAABase, paperConfig(t, "random", 0.002))
	eng.Run(40000 * sim.RouterPeriod)
	g.Stop()
	eng.Run(eng.Now() + 60000*sim.RouterPeriod)

	if g.Completed() == 0 {
		t.Fatal("no transactions completed")
	}
	if g.InFlightTxns() != 0 {
		t.Fatalf("%d transactions stuck after drain", g.InFlightTxns())
	}
	if net.Buffered() != 0 {
		t.Fatalf("%d packets stuck in buffers", net.Buffered())
	}
	if g.PendingInjections() != 0 {
		t.Fatalf("%d injections still pending", g.PendingInjections())
	}
	// Every completed transaction delivered 2 or 3 packets.
	if col.Packets() < 2*g.Completed() {
		t.Errorf("delivered %d packets for %d transactions", col.Packets(), g.Completed())
	}
}

func TestHopMixAndClassMix(t *testing.T) {
	cfg := paperConfig(t, "random", 0.004)
	cfg.Seed = 7
	g, _, eng, col := rig(t, core.KindSPAABase, cfg)
	eng.Run(60000 * sim.RouterPeriod)
	g.Stop()
	eng.Run(eng.Now() + 60000*sim.RouterPeriod)

	req := col.ClassPackets(packet.Request)
	fwd := col.ClassPackets(packet.Forward)
	resp := col.ClassPackets(packet.BlockResponse)
	if req == 0 || fwd == 0 || resp == 0 {
		t.Fatalf("missing classes: req=%d fwd=%d resp=%d", req, fwd, resp)
	}
	// 30% of transactions carry a forward.
	ratio := float64(fwd) / float64(req)
	if ratio < 0.2 || ratio > 0.4 {
		t.Errorf("forward/request ratio = %.2f, want ~0.30", ratio)
	}
	// Every transaction ends with exactly one block response.
	if resp != g.Completed() {
		t.Errorf("responses %d != completed transactions %d", resp, g.Completed())
	}
}

func TestMaxOutstandingRespected(t *testing.T) {
	cfg := paperConfig(t, "random", 1.0) // overwhelming demand
	g, net, eng, _ := rig(t, core.KindSPAABase, cfg)
	ran := false
	check := tickFunc(func(sim.Ticks) {
		ran = true
		for n := 0; n < net.Nodes(); n++ {
			if got := g.Outstanding(topology.Node(n)); got > cfg.MaxOutstanding {
				t.Fatalf("node %d has %d outstanding misses, cap is %d", n, got, cfg.MaxOutstanding)
			}
		}
	})
	eng.AddClock(sim.RouterPeriod, 5, check)
	eng.Run(5000 * sim.RouterPeriod)
	if !ran {
		t.Fatal("checker never ran")
	}
}

func TestPermutationPatternsRespectMapping(t *testing.T) {
	for _, pat := range []string{"bit-reversal", "perfect-shuffle"} {
		cfg := paperConfig(t, pat, 0.003)
		model := NewCoherence()
		model.TwoHopFraction = 1.0 // only requests+responses: dst is the permutation
		cfg.Model = model
		g, net, eng, col := rig(t, core.KindSPAABase, cfg)
		eng.Run(20000 * sim.RouterPeriod)
		g.Stop()
		eng.Run(eng.Now() + 40000*sim.RouterPeriod)
		if col.Packets() == 0 {
			t.Fatalf("%s: nothing delivered", pat)
		}
		if g.InFlightTxns() != 0 || net.Buffered() != 0 {
			t.Fatalf("%s: transactions stuck", pat)
		}
	}
}

func TestHigherRateRaisesThroughput(t *testing.T) {
	run := func(rate float64) float64 {
		_, net, eng, col := rig(t, core.KindSPAABase, paperConfig(t, "random", rate))
		end := 20000 * sim.RouterPeriod
		eng.Run(end)
		return col.BNF(net.Nodes(), end).Throughput
	}
	low, high := run(0.001), run(0.01)
	if high <= low {
		t.Fatalf("throughput did not rise with load: %.4f -> %.4f", low, high)
	}
	// Sanity: throughput is bounded by the architectural 2.4 flits/router/ns.
	if high > 2.4 {
		t.Fatalf("throughput %.3f exceeds the 2-local-port bound", high)
	}
}

func TestLatencyAboveZeroLoadMinimum(t *testing.T) {
	_, _, eng, col := rig(t, core.KindSPAABase, paperConfig(t, "random", 0.002))
	eng.Run(30000 * sim.RouterPeriod)
	if col.Packets() == 0 {
		t.Fatal("nothing delivered")
	}
	// §4.3: minimum per-packet latency is ~45 ns for the transaction mix;
	// individual requests can be faster, but the mean must exceed ~40 ns.
	if avg := col.AvgLatencyNS(); avg < 40 {
		t.Errorf("average latency %.1f ns below the paper's ~45 ns floor", avg)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, float64) {
		_, net, eng, col := rig(t, core.KindPIM1, paperConfig(t, "random", 0.005))
		end := 15000 * sim.RouterPeriod
		eng.Run(end)
		return col.Packets(), col.BNF(net.Nodes(), end).Throughput
	}
	p1, t1 := run()
	p2, t2 := run()
	if p1 != p2 || t1 != t2 {
		t.Fatalf("replay diverged: %d/%.6f vs %d/%.6f", p1, t1, p2, t2)
	}
}
