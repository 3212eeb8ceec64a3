package router

import (
	"math/bits"

	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// move is one candidate (output port, downstream channel) for a packet,
// together with the connection-matrix row (read port) that reaches the
// output.
type move struct {
	out      ports.Out
	row      int
	targetCh vc.Channel // meaningful for network moves only
	local    bool
}

// escapeSub returns the deadlock-free sub-channel that route's escape
// hop takes: VC1 while the wrap link lies ahead on the hop's ring (the
// dateline rule), VC0 after it or when the walk never crosses it.
func escapeSub(route *topology.Route) vc.Sub {
	if route.Dateline {
		return vc.VC1
	}
	return vc.VC0
}

// outFree reports whether output out will have finished its current
// transmission by the time a grant issued at gaTick puts the first flit
// on the wire.
func (r *Router) outFree(out ports.Out, gaTick sim.Ticks) bool {
	return r.busyUntil[out] <= gaTick+r.postArbTicks
}

// freeOutputs returns the output ports that will be free for a grant
// issued at gaTick, the complement of the busy-output mask: it rechecks
// the mask's outputs only once the threshold reaches busyNext. gaTick
// must not precede the previous call's (see Router.busyOuts). Only
// dispatch changes a port's busy time, and no dispatch happens inside an
// LA stage or a wave build, so each scan computes the set once.
func (r *Router) freeOutputs(gaTick sim.Ticks) ports.OutMask {
	if t := gaTick + r.postArbTicks; t >= r.busyNext {
		r.busyNext = never
		for w := r.busyOuts; w != 0; w &= w - 1 {
			out := ports.Out(bits.TrailingZeros8(uint8(w)))
			if until := r.busyUntil[out]; until <= t {
				r.busyOuts &^= 1 << out
			} else {
				r.busyNext = min(r.busyNext, until)
			}
		}
	}
	return ports.AllOuts &^ r.busyOuts
}

// localOut picks the processor-facing output port for a packet addressed
// to this node. I/O packets use the I/O port; everything else drains
// through the two memory-controller ports (which are also the path to the
// internal cache, §2.1), interleaved by packet ID as a stand-in for
// address interleaving across the two Rambus controllers.
func localOut(p *packet.Packet) ports.Out {
	if p.Class.IsIO() {
		return ports.OutIO
	}
	if p.ID%2 == 0 {
		return ports.OutMC0
	}
	return ports.OutMC1
}

// candidateOuts returns every output readyMoves can ever return for p on
// input in: its local output port, or its productive directions (non-I/O
// packets only) plus its dimension-order escape hop, each kept only when
// the crossbar connects in to it. Only output busy times and downstream
// credits change while p is buffered, so addPacket resolves the set once
// and the scans skip p whenever it misses their free-output set.
func (r *Router) candidateOuts(p *packet.Packet, in ports.In) ports.OutMask {
	var m ports.OutMask
	if p.Dst == r.node {
		m = m.With(localOut(p))
	} else {
		route := &r.routes[p.Dst]
		if !p.Class.IsIO() {
			for _, d := range route.Dirs[:route.NDirs] {
				m = m.With(ports.OutForDir(d))
			}
		}
		if route.EscapeOK {
			m = m.With(ports.OutForDir(route.Escape))
		}
	}
	return m & r.cfg.Conn.LegalOuts(in)
}

// readyMoves appends to dst the packet's ready candidate moves, in
// routing-preference order, and returns the extended slice:
//
//   - a packet addressed to this node uses its local output port;
//   - otherwise the adaptive channel offers up to two minimal-rectangle
//     directions (packets route adaptively until blocked, §2.1) — the
//     preference between two productive directions rotates per input port;
//   - when no adaptive move is ready (blocked: port busy or no buffer), the
//     packet may escape into the deadlock-free channels, taking the strict
//     dimension-order hop with VC0/VC1 chosen by the dateline rule;
//   - I/O-class packets route only in the deadlock-free channels (§2.1
//     footnote).
//
// A move is ready when the output port is in free (the ports free at
// grant time, see freeOutputs), the crossbar connects one of the input's
// read ports to it, and (for network moves) the downstream virtual
// channel has a free packet buffer.
func (r *Router) readyMoves(pk uint16, free ports.OutMask, dst []move) []move {
	rec := &r.slab.recs[pk]
	p, in := rec.pkt, rec.meta.in
	if p.Dst == r.node {
		out := localOut(p)
		if row := r.rowOf[in][out]; row >= 0 && free.Has(out) {
			dst = append(dst, move{out: out, row: int(row), local: true})
		}
		return dst
	}

	cls := p.Class
	route := &r.routes[p.Dst]
	if !cls.IsIO() {
		adaptiveCh := vc.Of(cls, vc.Adaptive)
		dirs := route.Dirs
		// Rotate which productive direction is preferred so traffic spreads
		// over both minimal-rectangle sides.
		if route.NDirs == 2 && r.dirPref[in]&1 == 1 {
			dirs[0], dirs[1] = dirs[1], dirs[0]
		}
		for _, d := range dirs[:route.NDirs] {
			if m, ok := r.networkMove(in, d, adaptiveCh, free); ok {
				dst = append(dst, m)
			}
		}
		if len(dst) > 0 {
			return dst
		}
	}

	// Blocked in the adaptive channel (or an I/O packet): deadlock-free
	// escape along dimension order.
	if !route.EscapeOK {
		return dst
	}
	if m, ok := r.networkMove(in, route.Escape, vc.Of(cls, escapeSub(route)), free); ok {
		dst = append(dst, m)
	}
	return dst
}

func (r *Router) networkMove(in ports.In, d topology.Dir, targetCh vc.Channel, free ports.OutMask) (move, bool) {
	out := ports.OutForDir(d)
	row := r.rowOf[in][out]
	if row < 0 || !free.Has(out) {
		return move{}, false
	}
	if cr := r.outputs[out].credits; cr == nil || !cr.Available(targetCh) {
		return move{}, false
	}
	return move{out: out, row: int(row), targetCh: targetCh}, true
}
