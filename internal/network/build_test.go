package network

import (
	"fmt"
	"runtime"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
)

// routerKinds lists the five algorithms the router pipeline implements.
var routerKinds = []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindPIM1, core.KindWFABase, core.KindWFARotary}

// TestBuildNetworkAllocs pins what wiring a torus costs: every router
// links its 152 queues through its packet slab, keeps its credit pools by
// value and sizes its slab, nomination FIFO or arbiter scratch once, and
// the links share one slice and one registered handler and are wired as
// the routers' Senders, so a build makes at most maxAllocsPerRouter
// allocations per router, whatever the algorithm or the torus size (7.2–7.6
// for SPAA and 13.2–14.6 for the wave kinds, on 4x4 and 8x8).
func TestBuildNetworkAllocs(t *testing.T) {
	const maxAllocsPerRouter = 15
	for _, size := range []int{4, 8} {
		for _, kind := range routerKinds {
			cfg := Config{Width: size, Height: size, Router: router.DefaultConfig(kind)}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := buildNetwork(cfg, sim.NewEngine(), nil); err != nil {
					t.Fatal(err)
				}
			})
			if perRouter := allocs / float64(size*size); perRouter > maxAllocsPerRouter {
				t.Errorf("%dx%d %v: buildNetwork makes %.0f allocations, %.1f per router, want at most %d",
					size, size, kind, allocs, perRouter, maxAllocsPerRouter)
			}
		}
	}
}

// TestBuildNetworkBytes bounds the bytes a torus build allocates per
// router: a router's queues are headers over its packet slab, with no
// storage of their own, and its route row holds one 6-byte
// topology.Route per node, so the row is the only part that grows with
// the torus. On 4x4, 8x8 and 16x16 tori a build takes 9,555–10,467 bytes
// per router for SPAA and 13,300–14,387 for the wave kinds, whose routers
// add the connection matrix and arbiter scratch; the bounds, 12 KiB and
// 16 KiB, leave 14–17% of headroom. At 16x16 a route row is 1,536 bytes;
// rows of 24-byte entries would break both bounds there.
func TestBuildNetworkBytes(t *testing.T) {
	for _, size := range []int{4, 8, 16} {
		for _, kind := range routerKinds {
			cfg := Config{Width: size, Height: size, Router: router.DefaultConfig(kind)}
			maxBytes := 16 << 10
			if kind == core.KindSPAABase || kind == core.KindSPAARotary {
				maxBytes = 12 << 10
			}
			const builds = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < builds; i++ {
				if _, err := buildNetwork(cfg, sim.NewEngine(), nil); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if perRouter := float64(after.TotalAlloc-before.TotalAlloc) / builds / float64(size*size); perRouter > float64(maxBytes) {
				t.Errorf("%dx%d %v: buildNetwork allocates %.0f bytes per router, want at most %d",
					size, size, kind, perRouter, maxBytes)
			}
		}
	}
}

// BenchmarkNetworkNew times the construction of one timing point on a
// torus: the engine, the statistics collector and network.New, for every
// router algorithm. Run it with `make bench-setup`.
func BenchmarkNetworkNew(b *testing.B) {
	for _, size := range []int{4, 8, 16} {
		for _, kind := range routerKinds {
			cfg := Config{Width: size, Height: size, Router: router.DefaultConfig(kind)}
			b.Run(fmt.Sprintf("%dx%d/%v", size, size, kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := New(cfg, sim.NewEngine(), stats.NewCollector(0)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
