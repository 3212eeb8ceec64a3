package network

import (
	"testing"

	"alpha21364/internal/check"
	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// checker installs the invariant oracle over net: grant legality on
// every router's arbitration, and buffer and credit bounds and packet
// conservation at each Sweep or Final.
func checker(net *Network) *check.Checker {
	routers := make([]*router.Router, net.Nodes())
	for node := range routers {
		routers[node] = net.Router(topology.Node(node))
	}
	return check.New(check.Probes{
		Injected:   func() int64 { return net.TotalCounters().Injected },
		Delivered:  func() int64 { return net.TotalCounters().DeliveredLocal },
		Buffered:   net.Buffered,
		LinkFlight: net.LinkFlight,
		Routers:    routers,
	})
}

// finalEveryCycle runs the Checker's drain-time invariants on every
// router-clock edge during a simulation, catching credit leaks the
// moment they happen.
type finalEveryCycle struct{ chk *check.Checker }

func (c finalEveryCycle) Tick(now sim.Ticks) { c.chk.Final(now) }

func TestInvariantsHoldUnderRandomTraffic(t *testing.T) {
	for _, kind := range []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindWFARotary, core.KindPIM1} {
		net, eng, col := build(t, kind, 4, 4)
		chk := checker(net)
		eng.AddClock(sim.RouterPeriod, 3, finalEveryCycle{chk})
		rng := sim.NewRNG(77)
		id := uint64(0)
		// Inject random bursts over time from random nodes.
		for wave := 0; wave < 30; wave++ {
			at := sim.Ticks(wave) * 40 * sim.RouterPeriod
			eng.Schedule(at, func() {
				for k := 0; k < 12; k++ {
					id++
					src := topology.Node(rng.Intn(net.Nodes()))
					dst := topology.Node(rng.Intn(net.Nodes()))
					cl := []packet.Class{packet.Request, packet.Forward, packet.BlockResponse}[rng.Intn(3)]
					p := packet.New(id, cl, src, dst, eng.Now())
					net.Inject(p, src, ports.InCache, eng.Now())
				}
			})
		}
		eng.Run(200000)
		chk.Final(eng.Now())
		if err := chk.Err(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if col.Packets() == 0 {
			t.Fatalf("%v: nothing delivered", kind)
		}
		if net.Buffered() != 0 {
			t.Fatalf("%v: %d packets never drained", kind, net.Buffered())
		}
	}
}

func TestInvariantViolationDetected(t *testing.T) {
	net, _, _ := build(t, core.KindSPAABase, 4, 4)
	chk := checker(net)
	// Sabotage a credit pool: a double release must be caught.
	net.Router(0).OutputCredits(ports.OutEast).Release(0)
	chk.Final(0)
	if v := chk.Violation(); v == nil || v.Invariant != "credit-bounds" || v.Node != 0 {
		t.Errorf("the checker missed a credit double release on router 0: %v", v)
	}
}
