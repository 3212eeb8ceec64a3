package network

import (
	"fmt"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
)

// routerKinds lists the five algorithms the router pipeline implements.
var routerKinds = []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindPIM1, core.KindWFABase, core.KindWFARotary}

// TestBuildNetworkAllocs pins what wiring a torus costs: every router
// places its 152 rings in one handle block, keeps its credit pools by
// value and sizes its slab, nomination FIFO or arbiter scratch once, and
// the links share one slice and one registered handler and are wired as
// the routers' Senders, so a build makes at most maxAllocsPerRouter
// allocations per router, whatever the algorithm or the torus size (8.2–8.7
// for SPAA and 14.2–15.6 for the wave kinds, on 4x4 and 8x8).
func TestBuildNetworkAllocs(t *testing.T) {
	const maxAllocsPerRouter = 16
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
