package router

// oracle.go is the router's window for online invariant checking
// (internal/check): an Oracle installed with SetOracle observes every
// arbitration decision as it commits, and the read-only accessors below
// let it sweep buffer state between cycles. The hooks are designed to be
// free when unused — a nil oracle costs exactly one pointer test per GA
// resolution and nothing per cycle otherwise — and allocation-free when
// installed: grant records are appended to a slice the router reuses
// across resolutions.

import (
	"math/bits"

	"alpha21364/internal/core"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// SPAAGrant describes one SPAA pipeline event — a nomination issued at LA
// or a dispatch committed at GA — as reported to the oracle.
type SPAAGrant struct {
	// ID is the packet's globally unique id.
	ID uint64
	// Row is the read-port row the nomination traveled through.
	Row int
	// In and Ch locate the input buffer the packet occupies.
	In ports.In
	Ch vc.Channel
	// Out is the nominated (or granted) output port; TargetCh the virtual
	// channel the packet will occupy downstream (network moves only).
	Out      ports.Out
	TargetCh vc.Channel
	// Local marks a move to a processor-facing output port.
	Local bool
}

// Oracle observes the router's arbitration pipeline. Implementations
// (internal/check) verify grant legality online: every grant must match a
// pending nomination, and no read-port row or output port may be granted
// twice in one resolution. Hook calls happen inside the router's Tick, so
// implementations must not mutate router state.
type Oracle interface {
	// SPAANominate reports one LA-stage nomination and the tick its GA
	// resolution is due.
	SPAANominate(r *Router, now sim.Ticks, g SPAAGrant, resolveAt sim.Ticks)
	// SPAAResolve reports one GA resolution: every dispatch committed at
	// tick now. It is called once per resolution batch, after the commits.
	SPAAResolve(r *Router, now sim.Ticks, grants []SPAAGrant)
	// WaveResolve reports one PIM1/WFA wave resolution: the connection
	// matrix as arbitrated and the arbiter's raw grants, before the commit
	// loop filters stale cells.
	WaveResolve(r *Router, now sim.Ticks, m *core.Matrix, grants []core.Grant)
}

// SetOracle installs (or, with nil, removes) the arbitration oracle.
func (r *Router) SetOracle(o Oracle) { r.oracle = o }

// QueueLen returns the number of packets buffered on one (input port,
// virtual channel) ring.
func (r *Router) QueueLen(in ports.In, ch vc.Channel) int {
	return r.queues[in][ch].Len()
}

// ScanOccupied calls f for every non-empty (input port, channel) ring
// with the ring's occupancy and its front — oldest-buffered — packet's id
// and header-arrival tick. The oracle's deadlock watchdog uses it to name
// the stuck buffers in its failure report.
func (r *Router) ScanOccupied(f func(in ports.In, ch vc.Channel, queued int, oldestID uint64, oldestArrive sim.Ticks)) {
	for in := ports.In(0); in < ports.NumIn; in++ {
		for w := r.occ[in]; w != 0; w &= w - 1 {
			ch := vc.Channel(bits.TrailingZeros32(w))
			q := &r.queues[in][ch]
			pk := q.At(0)
			f(in, ch, q.Len(), r.slab.pkt[pk].ID, r.slab.headerArrive[pk])
		}
	}
}
