package router

// state.go holds the router's per-packet bookkeeping: one slab of
// 48-byte records per router, indexed by handles drawn from a free
// list, with per-(input port, virtual channel) queues as fixed-capacity
// index rings in one handle block. The arbiter inner loops (SPAA
// nomination scans, PIM1/WFA wave builds) visit only the rings the
// router's occupancy index (Router.occ) marks non-empty and, before the
// aging bound, whose window summary (Router.winOuts) meets the free
// outputs; each visit reads one record instead of chasing a per-packet
// heap object, and routes only packets whose output mask meets the free
// outputs. The router allocates only when its slab outgrows its block:
// records and ring storage are recycled as packets dispatch, and the
// nomination FIFO and scan scratch are sized once by New.

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

// pkRec is one buffered packet's state: 48 bytes, with what a scan
// visit reads (meta, eligibleAt, headerArrive, the packet's ID) first.
type pkRec struct {
	meta pkMeta
	// next links a free record to the next free one (-1 ends the list).
	next         int32
	eligibleAt   sim.Ticks // earliest LA participation (after DW stages)
	headerArrive sim.Ticks // header at this router's pin (or injection time)
	pkt          *packet.Packet
	tailArrive   sim.Ticks // last flit fully arrived
	// Credit home: where to return the buffer credit this packet occupies
	// (its channel, meta.ch) when it leaves this router. Nil for
	// test-injected packets.
	upstream *vc.Credits
}

// slabFirst is the record count New gives every router's slab. The
// paper's workloads hold at most a few dozen packets per router at once
// (3–44 on a 4x4 torus from light load to saturation), and the block
// doubles past that.
const slabFirst = 32

// pkSlab is the per-router packet-state arena: one block of records
// indexed by handles, the free ones linked through their next
// field. A growth is one allocation: the block doubles, the records are
// copied (handles, not pointers, are held elsewhere, so moving them is
// safe), and the new records join the free list. Dispatch recycles its
// record, so a router's slab stops growing at its high-water mark.
type pkSlab struct {
	recs []pkRec
	free int32 // first free record, -1 when none
}

// grow doubles the block (New's first call makes slabFirst records) and
// links the new records, lowest first, as the free list. It runs only
// when no record is free.
func (s *pkSlab) grow() {
	old := len(s.recs)
	recs := make([]pkRec, max(2*old, slabFirst))
	copy(recs, s.recs)
	for i := old; i < len(recs)-1; i++ {
		recs[i].next = int32(i + 1)
	}
	recs[len(recs)-1].next = -1
	s.recs, s.free = recs, int32(old)
}

// alloc returns a free record's handle; the caller fills every field.
func (s *pkSlab) alloc() int32 {
	if s.free < 0 {
		s.grow()
	}
	idx := s.free
	s.free = s.recs[idx].next
	return idx
}

// release recycles a record, dropping its pointer fields for the GC.
func (s *pkSlab) release(idx int32) {
	s.recs[idx] = pkRec{next: s.free}
	s.free = idx
}

// Sender forwards a dispatched packet across a link: the packet leaves
// this router on a network output port at headerDepart and must appear at
// the neighbor with the given channel. creditHome is the credit pool to
// release when the packet later leaves the neighbor's buffer. The
// network's links implement it, so wiring a port stores a pointer and
// allocates nothing.
type Sender interface {
	Send(p *packet.Packet, targetCh vc.Channel, headerDepart sim.Ticks, creditHome *vc.Credits)
}

// SendFunc adapts a function to Sender.
type SendFunc func(p *packet.Packet, targetCh vc.Channel, headerDepart sim.Ticks, creditHome *vc.Credits)

// Send implements Sender.
func (f SendFunc) Send(p *packet.Packet, targetCh vc.Channel, headerDepart sim.Ticks, creditHome *vc.Credits) {
	f(p, targetCh, headerDepart, creditHome)
}

// DeliverFunc consumes a packet at a local output port; at is the time the
// last flit reaches the sink.
type DeliverFunc func(p *packet.Packet, at sim.Ticks)

// outputPort is the wiring of one of the seven output ports; its busy
// time lives in Router.busyUntil.
type outputPort struct {
	// credits tracks free buffer space at the downstream router's input
	// port (network ports only).
	credits *vc.Credits
	send    Sender      // network ports
	deliver DeliverFunc // local ports
}
