package router

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// TestRouterTickAllocs pins the router's steady-state allocation budget:
// once the packet slab and scratch slices have reached their high-water
// marks, injecting, arbitrating, and dispatching packets must not
// allocate. Packets are self-addressed so the whole life cycle (inject,
// SPAA nomination or wave, grant, local delivery) runs inside one
// router, on every algorithm.
func TestRouterTickAllocs(t *testing.T) {
	for _, kind := range routerKinds {
		torus := topology.NewTorus(4, 4)
		cfg := DefaultConfig(kind)
		r, err := New(cfg, 5, torus)
		if err != nil {
			t.Fatal(err)
		}
		arena := packet.NewArena()
		for _, out := range []ports.Out{ports.OutMC0, ports.OutMC1, ports.OutIO} {
			r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {
				arena.Release(p)
			})
		}

		now := sim.Ticks(0)
		id := uint64(0)
		cycle := func() {
			id++
			p := arena.New(id, packet.Request, 5, 5, now)
			if !r.Inject(p, ports.InCache, now) {
				arena.Release(p)
			}
			for c := 0; c < 8; c++ {
				r.Tick(now)
				now += cfg.RouterPeriod
			}
		}
		// Warm slab, queues, and scratch past their high-water marks.
		for i := 0; i < 50; i++ {
			cycle()
		}
		allocs := testing.AllocsPerRun(200, cycle)
		if allocs != 0 {
			t.Errorf("%v: steady-state router Tick allocates %.2f/op, want 0", kind, allocs)
		}
	}
}

// TestSlabGrowsOneBlockAtATime pins the slab's growth: New's block holds
// slabFirst records, and each growth past it doubles the block in one
// allocation, keeping every record and handle. Released records are
// reused before the block grows again.
func TestSlabGrowsOneBlockAtATime(t *testing.T) {
	fill := func(n int) *pkSlab {
		s := &pkSlab{}
		s.grow()
		for i := 0; i < n; i++ {
			h := s.alloc()
			s.recs[h] = pkRec{headerArrive: sim.Ticks(h), eligibleAt: sim.Ticks(i)}
		}
		return s
	}
	base := testing.AllocsPerRun(5, func() { fill(0) })
	for _, c := range []struct{ n, growths int }{
		{slabFirst, 0}, {slabFirst + 1, 1}, {4 * slabFirst, 2}, {4*slabFirst + 1, 3},
	} {
		if got := testing.AllocsPerRun(5, func() { fill(c.n) }) - base; got != float64(c.growths) {
			t.Errorf("%d records: %.0f allocations past the first block, want %d", c.n, got, c.growths)
		}
		s := fill(c.n)
		if len(s.recs) != slabFirst<<c.growths {
			t.Errorf("%d records: block of %d, want %d", c.n, len(s.recs), slabFirst<<c.growths)
		}
		for h := 0; h < c.n; h++ {
			if r := s.recs[h]; r.headerArrive != sim.Ticks(h) || r.eligibleAt != sim.Ticks(h) {
				t.Fatalf("%d records: record %d lost its fields across growth: %+v", c.n, h, r)
			}
		}
	}
	s := fill(4 * slabFirst)
	s.release(7)
	s.release(100)
	if allocs := testing.AllocsPerRun(5, func() {
		a, b := s.alloc(), s.alloc()
		s.release(b)
		s.release(a)
	}); allocs != 0 {
		t.Errorf("reusing released records allocates %.0f, want 0", allocs)
	}
	if a, b := s.alloc(), s.alloc(); a != 100 || b != 7 {
		t.Errorf("the free list hands out %d then %d, want the last released first: 100 then 7", a, b)
	}
}

// TestNominationQueueBound checks the nomination FIFO's bound: New sizes
// it to one nomination per input port for each LA stage that can be in
// flight, ceil((ArbCycles-1) / InitInterval) stages, and a saturated
// router fills it exactly (tickSPAA panics past the bound).
func TestNominationQueueBound(t *testing.T) {
	interval2 := DefaultConfig(core.KindSPAABase)
	interval2.InitInterval = 2
	for _, c := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"default", DefaultConfig(core.KindSPAARotary), 16},
		{"ScalePipeline", DefaultConfig(core.KindSPAARotary).ScalePipeline(), 40},
		{"InitInterval 2", interval2, 8},
	} {
		r, cycle := newTickLoad(t, c.cfg, 0.5)
		if cap(r.noms) != c.want {
			t.Errorf("%s: nomination FIFO holds %d, want %d", c.name, cap(r.noms), c.want)
		}
		most := 0
		for i := 0; i < 3000; i++ {
			cycle()
			most = max(most, len(r.noms))
		}
		if most != c.want {
			t.Errorf("%s: a saturated router held at most %d nominations, want the bound %d", c.name, most, c.want)
		}
	}
}
