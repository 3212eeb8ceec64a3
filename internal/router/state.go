package router

// state.go holds the router's per-packet bookkeeping in struct-of-arrays
// form: one slab of parallel arrays per router, indexed by int32 handles
// drawn from a free list, with per-(input port, virtual channel) queues
// as fixed-capacity index rings over the slab. The arbiter inner loops
// (SPAA nomination scans, PIM1/WFA wave builds) visit only the rings the
// router's occupancy index (Router.occ) marks non-empty, walk dense
// arrays of ticks and packed per-slot words instead of chasing
// per-packet heap objects, and route only packets whose output mask
// meets the free outputs; the steady-state router allocates nothing:
// slab slots and ring storage are recycled as packets dispatch.

import (
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// pkState flag bits.
const (
	pkNominated uint8 = 1 << iota // locked by an in-flight nomination or wave
	pkOld                         // anti-starvation color
)

// pkMeta is the per-slot state every arbitration scan reads for each
// packet it visits, packed into one word so a visit loads it once.
type pkMeta struct {
	ch    vc.Channel // channel occupied at this router
	in    ports.In
	flags uint8
	// outs is the set of outputs readyMoves can ever return for the
	// packet (see candidateOuts), resolved once at enqueue: a scan whose
	// free-output set misses it skips the packet without routing it.
	outs ports.OutMask
}

// pkSlab is the per-router packet-state arena: parallel arrays indexed
// by int32 handles. Growth appends to every array (indices, not
// pointers, are held elsewhere, so reallocation is safe); the free list
// recycles slots, reaching a steady state with zero allocation.
type pkSlab struct {
	pkt          []*packet.Packet
	meta         []pkMeta
	headerArrive []sim.Ticks // header at this router's pin (or injection time)
	tailArrive   []sim.Ticks // last flit fully arrived
	eligibleAt   []sim.Ticks // earliest LA participation (after DW stages)
	// Credit home: where to return the buffer credit this packet occupies
	// (its channel, meta.ch) when it leaves this router. Nil for
	// test-injected packets.
	upstream []*vc.Credits

	free []int32
}

// alloc returns a fresh slot handle; the caller fills every field.
func (s *pkSlab) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	idx := int32(len(s.pkt))
	s.pkt = append(s.pkt, nil)
	s.meta = append(s.meta, pkMeta{})
	s.headerArrive = append(s.headerArrive, 0)
	s.tailArrive = append(s.tailArrive, 0)
	s.eligibleAt = append(s.eligibleAt, 0)
	s.upstream = append(s.upstream, nil)
	return idx
}

// release recycles a slot, dropping its pointer fields for the GC.
func (s *pkSlab) release(idx int32) {
	s.pkt[idx] = nil
	s.upstream[idx] = nil
	s.meta[idx].flags = 0
	s.free = append(s.free, idx)
}

// initQueues sizes one input port's per-channel rings to the configured
// buffer capacities.
func initQueues(queues *[vc.NumChannels]vc.Ring, cfg vc.Config) {
	for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
		queues[ch].Init(cfg.Capacity(ch))
	}
}

// SendFunc forwards a dispatched packet across a link: the packet leaves
// this router on a network output port at headerDepart and must appear at
// the neighbor with the given channel. creditHome is the credit pool to
// release when the packet later leaves the neighbor's buffer.
type SendFunc func(p *packet.Packet, targetCh vc.Channel, headerDepart sim.Ticks, creditHome *vc.Credits)

// DeliverFunc consumes a packet at a local output port; at is the time the
// last flit reaches the sink.
type DeliverFunc func(p *packet.Packet, at sim.Ticks)

// outputPort is one of the seven output ports.
type outputPort struct {
	id ports.Out
	// busyUntil is when the port finishes transmitting its current packet;
	// re-arbitration is possible once all flits are delivered (§2.1).
	busyUntil sim.Ticks
	// credits tracks free buffer space at the downstream router's input
	// port (network ports only).
	credits *vc.Credits
	send    SendFunc    // network ports
	deliver DeliverFunc // local ports
}

// freeForGrant reports whether the port will have finished its current
// transmission by the time a grant issued at gaTick puts the first flit on
// the wire.
func (o *outputPort) freeForGrant(gaTick sim.Ticks, postArb sim.Ticks) bool {
	return o.busyUntil <= gaTick+postArb
}
