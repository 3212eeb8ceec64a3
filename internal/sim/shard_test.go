package sim

import (
	"fmt"
	"strings"
	"testing"
)

// newGroup builds a group the way simbench/trace.go does: one member
// engine, an empty post buffer and a positive lookahead.
func newGroup() (*Engine, *ShardGroup) {
	hub := NewEngine()
	return hub, NewShardGroup(hub, []*Engine{NewEngine()}, NewPostBuffer(1), 10)
}

// TestShardGroupHubStop verifies Engine.Stop on the hub halts the
// group's Run mid-run.
func TestShardGroupHubStop(t *testing.T) {
	hub, g := newGroup()
	fired := 0
	stopH := hub.RegisterHandler(func(EventArgs) { hub.Stop() })
	h := hub.RegisterHandler(func(EventArgs) { fired++ })
	hub.Post(7, stopH, EventArgs{})
	hub.Post(20, h, EventArgs{})
	g.Run(100)
	if now := hub.Now(); now != 7 {
		t.Fatalf("hub stopped at tick %d, want 7", now)
	}
	if fired != 0 {
		t.Fatalf("%d post-stop events dispatched", fired)
	}
}

// TestShardGroupDomainsAfterEdge pins the edge's place in a tick: after
// the tick's events and the domains added before SetEdge, before the
// domains added after it (network.New's router edge fires before the
// generator's domain the same way), with shard 0 and edges counted
// from 1.
func TestShardGroupDomainsAfterEdge(t *testing.T) {
	hub, g := newGroup()
	var order []string
	h := hub.RegisterHandler(func(EventArgs) { order = append(order, "event") })
	hub.AddClock(4, 0, clockedFunc(func(Ticks) { order = append(order, "before") }))
	g.SetEdge(4, 0, func(shard int, now Ticks, edge uint64) {
		order = append(order, fmt.Sprintf("edge %d of shard %d at %d", edge, shard, now))
	})
	hub.AddClock(4, 0, clockedFunc(func(Ticks) { order = append(order, "after") }))
	hub.Post(4, h, EventArgs{})
	g.Run(4)
	got := strings.Join(order, ", ")
	if want := "before, edge 1 of shard 0 at 0, after, event, before, edge 2 of shard 0 at 4, after"; got != want {
		t.Fatalf("order %s\nwant  %s", got, want)
	}
}

// TestShardGroupDispatchAllocs pins the zero-allocation steady state of
// the group: the edge's clock domain, an edge job that posts to the hub,
// and pooled event dispatch allocate nothing once the free list has
// warmed.
func TestShardGroupDispatchAllocs(t *testing.T) {
	hub, g := newGroup()
	fired := 0
	h := hub.RegisterHandler(func(EventArgs) { fired++ })
	g.SetEdge(4, 0, func(shard int, now Ticks, edge uint64) {
		hub.Post(now+10, h, EventArgs{A: int64(edge)})
	})
	until := Ticks(0)
	run := func() {
		until += 40
		g.Run(until)
	}
	for i := 0; i < 50; i++ {
		run() // warm the event free list
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("group steady state allocates %.2f/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("edge posts never dispatched")
	}
}

// TestShardGroupSplitRunMatchesOneRun is TestSplitRunMatchesOneRun for a
// group: split Runs fire the same router edges, with the same edge
// numbers, and the same hub clock edges and events at the same ticks as
// one Run, and leave the clock at until.
func TestShardGroupSplitRunMatchesOneRun(t *testing.T) {
	run := func(untils ...Ticks) string {
		hub, g := newGroup()
		var log []string
		g.SetEdge(10, 0, func(shard int, now Ticks, edge uint64) {
			log = append(log, fmt.Sprintf("router edge %d at %d", edge, now))
		})
		hub.AddClock(10, 0, edgePoster{hub, &log})
		for _, u := range untils {
			g.Run(u)
			if hub.Now() != u {
				t.Errorf("Run(%d) of %d left the hub at %d", u, untils, hub.Now())
			}
		}
		return strings.Join(log, "\n")
	}
	whole := run(20)
	if want := "router edge 1 at 0\nedge 0\nevent of edge 0 at 1\nrouter edge 2 at 10\nedge 10\nevent of edge 10 at 11\nrouter edge 3 at 20\nedge 20"; whole != want {
		t.Fatalf("Run(20):\n%s\nwant:\n%s", whole, want)
	}
	for _, untils := range [][]Ticks{{10, 20}, {5, 10, 15, 20}, {10, 10, 20}, {0, 9, 10, 11, 20}} {
		if got := run(untils...); got != whole {
			t.Errorf("Run %d:\n%s\nwant, as Run(20):\n%s", untils, got, whole)
		}
	}
}
