package workload

import (
	"alpha21364/internal/check"
	"alpha21364/internal/network"
	"alpha21364/internal/router"
	"alpha21364/internal/topology"
)

// Checker installs the invariant oracle over a network and the generator
// that loads it: grant legality on every router's arbitration, and
// buffer and credit bounds, packet conservation and the arena leak check
// at each Sweep or Final.
func Checker(net *network.Network, gen *Generator) *check.Checker {
	routers := make([]*router.Router, net.Nodes())
	for node := range routers {
		routers[node] = net.Router(topology.Node(node))
	}
	return check.New(check.Probes{
		Injected:          func() int64 { return net.TotalCounters().Injected },
		Delivered:         func() int64 { return net.TotalCounters().DeliveredLocal },
		Buffered:          net.Buffered,
		LinkFlight:        net.LinkFlight,
		PendingInjections: gen.PendingInjections,
		ArenaLive:         gen.ArenaLive,
		Sunk:              gen.Sunk,
		Routers:           routers,
	})
}
