package workload_test

// metamorphic_test.go exploits the torus's vertex-transitivity as a test
// oracle: relabeling every node by a torus automorphism (a translation)
// conjugates the workload but leaves the physical network identical, so
// for a rotation-invariant pattern like uniform traffic the aggregate
// throughput and latency statistics must be statistically unchanged —
// only the RNG-level packet identities move. A simulator whose routing,
// arbitration, or credit accounting silently favored particular node
// coordinates would break this relation even while every conventional
// regression test passed.

import (
	"math"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/network"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
	"alpha21364/internal/workload"
)

// conjugated relabels an inner pattern by a node bijection: destinations
// are drawn as the rotated source would draw them, then rotated back.
// For any automorphism of the torus this preserves the inner pattern's
// destination distribution exactly.
type conjugated struct {
	inner    workload.Pattern
	fwd, inv func(topology.Node) topology.Node
}

func (c conjugated) Name() string { return "conjugated-" + c.inner.Name() }

func (c conjugated) Dest(src topology.Node, rng *sim.RNG) topology.Node {
	return c.inv(c.inner.Dest(c.fwd(src), rng))
}

// translation returns the torus automorphism shifting every node by
// (dx, dy), and its inverse.
func translation(t topology.Torus, dx, dy int) (fwd, inv func(topology.Node) topology.Node) {
	shift := func(dx, dy int) func(topology.Node) topology.Node {
		return func(n topology.Node) topology.Node {
			c := t.Coord(n)
			c.X = ((c.X+dx)%t.Width + t.Width) % t.Width
			c.Y = ((c.Y+dy)%t.Height + t.Height) % t.Height
			return t.Node(c)
		}
	}
	return shift(dx, dy), shift(-dx, -dy)
}

// runPattern executes one small timing simulation under the given
// pattern, with the invariant oracle watching, and returns its aggregate
// BNF point.
func runPattern(t *testing.T, pat workload.Pattern, cycles int) stats.Point {
	t.Helper()
	rcfg := router.DefaultConfig(core.KindSPAARotary)
	end := sim.Ticks(cycles) * rcfg.RouterPeriod
	eng := sim.NewEngine()
	col := stats.NewCollector(end / 5)
	net, err := network.New(network.Config{Width: 4, Height: 4, Router: rcfg}, eng, col)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := workload.NewProcess("bernoulli", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(workload.Config{
		Pattern: pat, Process: proc, MaxOutstanding: 16, Seed: 9,
	}, net, eng, col)
	eng.AddClock(rcfg.RouterPeriod, 0, gen)
	chk := workload.Checker(net, gen)
	chk.Schedule(eng)
	eng.Run(end)
	chk.Final(eng.Now())
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	return col.BNF(net.Nodes(), end)
}

// TestTorusAutomorphismInvariance is the metamorphic relation: uniform
// traffic conjugated by a torus translation must produce statistically
// indistinguishable aggregate throughput and latency. The tolerance
// absorbs the RNG-level resampling (the conjugated run draws different
// packets); systematic coordinate bias would blow far past it.
func TestTorusAutomorphismInvariance(t *testing.T) {
	const cycles = 40000
	torus := topology.NewTorus(4, 4)
	uniform := workload.NewUniform(torus)
	base := runPattern(t, uniform, cycles)
	if base.Packets == 0 {
		t.Fatal("baseline run delivered nothing")
	}
	for _, rot := range []struct{ dx, dy int }{{1, 0}, {0, 2}, {3, 1}} {
		fwd, inv := translation(torus, rot.dx, rot.dy)
		got := runPattern(t, conjugated{inner: uniform, fwd: fwd, inv: inv}, cycles)
		if relDiff(got.Throughput, base.Throughput) > 0.10 {
			t.Errorf("rotation (%d,%d): throughput %.4f diverged from %.4f beyond 10%%",
				rot.dx, rot.dy, got.Throughput, base.Throughput)
		}
		if relDiff(got.AvgLatencyNS, base.AvgLatencyNS) > 0.10 {
			t.Errorf("rotation (%d,%d): avg latency %.1f ns diverged from %.1f ns beyond 10%%",
				rot.dx, rot.dy, got.AvgLatencyNS, base.AvgLatencyNS)
		}
		// The relabeling must actually have changed the microscopic run
		// (otherwise the relation tested nothing): packet-level identity
		// would make the two runs equal to the last ulp.
		if got.Packets == base.Packets && got.AvgLatencyNS == base.AvgLatencyNS {
			t.Errorf("rotation (%d,%d): run is microscopically identical; the conjugation was a no-op",
				rot.dx, rot.dy)
		}
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}
