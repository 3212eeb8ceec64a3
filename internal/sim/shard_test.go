package sim

import (
	"fmt"
	"strings"
	"testing"
)

// shardRig is a hub + 2 members group with recording handlers.
type shardRig struct {
	hub     *Engine
	members []*Engine
	pb      *PostBuffer
	g       *ShardGroup
	// log records every dispatched event as (engine index, tick, tag):
	// -1 for hub, 0..k-1 for members.
	log []shardEvent
	hs  []HandlerID // handler per engine, same indexing convention
}

type shardEvent struct {
	eng int
	at  Ticks
	tag int64
}

func newShardRig(t *testing.T, lookahead Ticks) *shardRig {
	t.Helper()
	r := &shardRig{
		hub:     NewEngine(),
		members: []*Engine{NewEngine(), NewEngine()},
		pb:      NewPostBuffer(4),
	}
	record := func(idx int) Handler {
		return func(args EventArgs) {
			e := r.hub
			if idx >= 0 {
				e = r.members[idx]
			}
			r.log = append(r.log, shardEvent{eng: idx, at: e.Now(), tag: args.A})
		}
	}
	r.hs = []HandlerID{r.hub.RegisterHandler(record(-1))}
	for i, m := range r.members {
		r.hs = append(r.hs, m.RegisterHandler(record(i)))
	}
	r.g = NewShardGroup(r.hub, r.members, r.pb, lookahead)
	t.Cleanup(r.g.Close)
	return r
}

// TestShardGroupDispatchOrder proves the group's per-tick phase contract:
// member events dispatch before hub events at the same tick, events obey
// (time, seq) order within each engine, and flushed edge posts preserve
// source order.
func TestShardGroupDispatchOrder(t *testing.T) {
	r := newShardRig(t, 10)
	// Same-tick events across engines: members dispatch (in member order)
	// before the hub.
	r.hub.Post(5, r.hs[0], EventArgs{A: 100})
	r.members[1].Post(5, r.hs[2], EventArgs{A: 300})
	r.members[0].Post(5, r.hs[1], EventArgs{A: 200})
	r.g.Run(5)
	want := []shardEvent{{0, 5, 200}, {1, 5, 300}, {-1, 5, 100}}
	if len(r.log) != len(want) {
		t.Fatalf("dispatched %d events, want %d: %+v", len(r.log), len(want), r.log)
	}
	for i, w := range want {
		if r.log[i] != w {
			t.Fatalf("event %d = %+v, want %+v (log %+v)", i, r.log[i], w, r.log)
		}
	}
}

// TestShardGroupEdgeAndFlush drives an edge job that cross-posts between
// shards through the PostBuffer and checks the arrivals land in the
// neighbor's engine at the posted tick, in source order.
func TestShardGroupEdgeAndFlush(t *testing.T) {
	const lookahead = 10
	r := newShardRig(t, lookahead)
	r.g.SetEdge(4, 0, func(shard int, now Ticks, edge uint64) {
		other := 1 - shard
		// Source ids: shard s posts from sources 2s and 2s+1; flush order
		// must serialize source 0, 1 (shard 0) before 2, 3 (shard 1).
		r.pb.Post(2*shard, r.members[other], now+lookahead, r.hs[1+other], EventArgs{A: int64(100*shard + 1)})
		r.pb.Post(2*shard+1, r.hub, now+lookahead, r.hs[0], EventArgs{A: int64(100*shard + 2)})
	})
	r.g.Run(4) // edges at 0 and 4; arrivals from edge 0 land at 10 (unreached)
	if len(r.log) != 0 {
		t.Fatalf("no arrivals should have dispatched yet, got %+v", r.log)
	}
	r.g.Run(10)
	// Edge 0's posts all dispatch at tick 10: member events first (member
	// 0's engine got shard 1's post; member 1's got shard 0's), then hub
	// events in flush (source) order.
	want := []shardEvent{{0, 10, 101}, {1, 10, 1}, {-1, 10, 2}, {-1, 10, 102}}
	if len(r.log) != len(want) {
		t.Fatalf("dispatched %d events, want %d: %+v", len(r.log), len(want), r.log)
	}
	for i, w := range want {
		if r.log[i] != w {
			t.Fatalf("event %d = %+v, want %+v (log %+v)", i, r.log[i], w, r.log)
		}
	}
}

// TestShardGroupLookaheadViolationPanics pins the CMB safety assertion:
// a cross-shard post inside the lookahead window is a bug, not a
// silently-late event.
func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	r := newShardRig(t, 10)
	r.g.SetEdge(4, 0, func(shard int, now Ticks, edge uint64) {
		if shard == 0 {
			r.pb.Post(0, r.members[1], now+9, r.hs[2], EventArgs{})
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected a lookahead-violation panic")
		}
	}()
	r.g.Run(4)
}

// TestShardGroupHubStop verifies Engine.Stop on the hub halts the group
// mid-run, like the monolithic engine.
func TestShardGroupHubStop(t *testing.T) {
	r := newShardRig(t, 10)
	stopH := r.hub.RegisterHandler(func(EventArgs) { r.hub.Stop() })
	r.hub.Post(7, stopH, EventArgs{})
	r.members[0].Post(20, r.hs[1], EventArgs{A: 9})
	r.g.Run(100)
	if now := r.hub.Now(); now != 7 {
		t.Fatalf("hub stopped at tick %d, want 7", now)
	}
	if len(r.log) != 0 {
		t.Fatalf("post-stop events dispatched: %+v", r.log)
	}
}

// TestShardGroupDomainsAfterEdge checks hub clock domains tick after the
// edge phase on shared ticks, mirroring the monolithic engine's
// routers-then-generator domain order.
func TestShardGroupDomainsAfterEdge(t *testing.T) {
	r := newShardRig(t, 10)
	var order []string
	r.g.SetEdge(4, 0, func(shard int, now Ticks, edge uint64) {
		if shard == 0 {
			order = append(order, "edge")
		}
	})
	r.hub.AddClock(4, 0, clockedFunc(func(now Ticks) { order = append(order, "domain") }))
	r.g.Run(4)
	want := []string{"edge", "domain", "edge", "domain"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestShardGroupSplitRunMatchesOneRun is TestSplitRunMatchesOneRun for a
// group: split Runs fire the same router edges, hub clock edges and hub
// events at the same ticks as one Run, and leave the clock at until.
func TestShardGroupSplitRunMatchesOneRun(t *testing.T) {
	run := func(untils ...Ticks) string {
		r := newShardRig(t, 10)
		var log []string
		r.g.SetEdge(10, 0, func(shard int, now Ticks, edge uint64) {
			if shard == 0 {
				log = append(log, fmt.Sprintf("router edge %d", now))
			}
		})
		r.hub.AddClock(10, 0, edgePoster{r.hub, &log})
		for _, u := range untils {
			r.g.Run(u)
			if r.hub.Now() != u || r.members[0].Now() != u {
				t.Errorf("Run(%d) of %d left the hub at %d, a member at %d", u, untils, r.hub.Now(), r.members[0].Now())
			}
		}
		return strings.Join(log, "\n")
	}
	whole := run(20)
	if want := "router edge 0\nedge 0\nevent of edge 0 at 1\nrouter edge 10\nedge 10\nevent of edge 10 at 11\nrouter edge 20\nedge 20"; whole != want {
		t.Fatalf("Run(20):\n%s\nwant:\n%s", whole, want)
	}
	for _, untils := range [][]Ticks{{10, 20}, {5, 10, 15, 20}, {10, 10, 20}, {0, 9, 10, 11, 20}} {
		if got := run(untils...); got != whole {
			t.Errorf("Run %d:\n%s\nwant, as Run(20):\n%s", untils, got, whole)
		}
	}
}

// TestShardGroupDispatchAllocs pins the zero-allocation contract of the
// sharded steady state: edges with cross-shard PostBuffer traffic and
// pooled event dispatch must not allocate once the free lists and the
// buffer's per-source slices have warmed.
func TestShardGroupDispatchAllocs(t *testing.T) {
	const lookahead = 10
	r := newShardRig(t, lookahead)
	fired := 0
	count := func(args EventArgs) { fired++ }
	chs := []HandlerID{r.members[0].RegisterHandler(count), r.members[1].RegisterHandler(count)}
	hubH := r.hub.RegisterHandler(count)
	r.g.SetEdge(4, 0, func(shard int, now Ticks, edge uint64) {
		other := 1 - shard
		r.pb.Post(2*shard, r.members[other], now+lookahead, chs[other], EventArgs{})
		r.pb.Post(2*shard+1, r.hub, now+lookahead, hubH, EventArgs{})
	})
	until := Ticks(0)
	run := func() {
		until += 40
		r.g.Run(until)
	}
	for i := 0; i < 50; i++ {
		run() // warm free lists and post-buffer capacity
	}
	allocs := testing.AllocsPerRun(200, run)
	if allocs != 0 {
		t.Fatalf("sharded steady state allocates %.2f/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("handlers never fired")
	}
}

// TestShardGroupSingleMemberInline covers the k=1 fast path (no worker
// goroutines): the edge runs inline and posts still flush through the
// buffer.
func TestShardGroupSingleMemberInline(t *testing.T) {
	hub := NewEngine()
	member := NewEngine()
	pb := NewPostBuffer(1)
	fired := 0
	h := member.RegisterHandler(func(EventArgs) { fired++ })
	g := NewShardGroup(hub, []*Engine{member}, pb, 10)
	defer g.Close()
	g.SetEdge(4, 0, func(shard int, now Ticks, edge uint64) {
		pb.Post(0, member, now+10, h, EventArgs{})
	})
	g.Run(50)
	if fired == 0 {
		t.Fatal("inline edge posts never dispatched")
	}
}
