package router

// state.go holds the router's per-packet bookkeeping: one slab of
// 48-byte records per router, indexed by 16-bit handles. A free record
// is linked into the slab's free list; a buffered one is linked into
// its per-(input port, virtual channel) queue, in arrival order, so a
// queue is an 8-byte header over its packets' records and a router
// keeps no queue storage besides. The arbiter inner loops (SPAA
// nomination scans, PIM1/WFA wave builds) visit only the queues the
// router's occupancy index (Router.occ) marks non-empty and, before the
// aging bound, whose window summary (Router.winOuts) meets the free
// outputs; each visit reads one record and follows its link instead of
// chasing a per-packet heap object, and routes only packets whose
// output mask meets the free outputs. Since a queue is in arrival
// order, an SPAA walk before the aging bound stops at the first packet
// younger than its best candidate. The router allocates only when
// its slab outgrows its block: records are recycled as packets
// dispatch, and the nomination FIFO and scan scratch are sized once by
// New.

import (
	"math"

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
// visit reads (meta, the queue link, eligibleAt, headerArrive, the
// packet's ID) first.
type pkRec struct {
	meta pkMeta
	// next and prev link a buffered record into its queue, next toward
	// the tail; next also links a free record to the next free one.
	// nilHandle ends either list.
	next, prev   uint16
	eligibleAt   sim.Ticks // earliest LA participation (after DW stages)
	headerArrive sim.Ticks // header at this router's pin (or injection time)
	pkt          *packet.Packet
	tailArrive   sim.Ticks // last flit fully arrived
	// Credit home: where to return the buffer credit this packet occupies
	// (its channel, meta.ch) when it leaves this router. Nil for
	// test-injected packets.
	upstream *vc.Credits
}

// nilHandle is the one 16-bit handle that names no record: it ends a
// queue and the free list, and marks a wave cell or nomination that
// holds no packet. New refuses a buffer configuration whose slab could
// hand out a handle that large.
const nilHandle = math.MaxUint16

// slabFirst is the record count New gives every router's slab. The
// paper's workloads hold at most a few dozen packets per router at once
// (3–44 on a 4x4 torus from light load to saturation), and the block
// doubles past that.
const slabFirst = 32

// pkSlab is the per-router packet-state arena: one block of records
// indexed by handles, the free ones linked through their next
// field. A growth is one allocation: the block doubles, the records are
// copied (handles, not pointers, link them and are held elsewhere, so
// moving them is safe), and the new records join the free list.
// Dispatch recycles its record, so a router's slab stops growing at its
// high-water mark.
type pkSlab struct {
	recs []pkRec
	free uint16 // first free record, nilHandle when none
}

// grow doubles the block (New's first call makes slabFirst records) and
// links the new records, lowest first, as the free list. It runs only
// when no record is free. The block stops at nilHandle records, so every
// record's handle is a valid link; New keeps a router's buffered packets
// below that, so a block of that size never fills.
func (s *pkSlab) grow() {
	old := len(s.recs)
	recs := make([]pkRec, min(max(2*old, slabFirst), nilHandle))
	copy(recs, s.recs)
	for i := old; i < len(recs)-1; i++ {
		recs[i].next = uint16(i + 1)
	}
	recs[len(recs)-1].next = nilHandle
	s.recs, s.free = recs, uint16(old)
}

// alloc returns a free record's handle; the caller fills every field.
func (s *pkSlab) alloc() uint16 {
	if s.free == nilHandle {
		s.grow()
	}
	idx := s.free
	s.free = s.recs[idx].next
	return idx
}

// release recycles a record, dropping its pointer fields for the GC.
func (s *pkSlab) release(idx uint16) {
	s.recs[idx] = pkRec{next: s.free}
	s.free = idx
}

// queue is one (input port, virtual channel) buffer: its packets'
// records, linked oldest (head) to newest (tail) through the slab. A
// packet joins at the tail when its header arrives and may leave from
// anywhere, since the arbiters dispatch the oldest eligible packet,
// which need not be the head; both are O(1), and the others keep their
// order. Every operation takes the slab's records, so the header holds
// no pointer. The zero queue has capacity 0; New sets each capacity
// from the buffer configuration.
type queue struct {
	head, tail, n, cap uint16
}

// Len returns the number of queued packets.
func (q *queue) Len() int { return int(q.n) }

// Full reports whether the queue holds its capacity.
func (q *queue) Full() bool { return q.n == q.cap }

// push links record h at the tail. It panics when the queue is full
// (the router's credit accounting must prevent that).
func (q *queue) push(recs []pkRec, h uint16) {
	if q.n == q.cap {
		panic("router: push on a full queue — credit accounting broken")
	}
	rec := &recs[h]
	rec.next, rec.prev = nilHandle, nilHandle
	if q.n == 0 {
		q.head = h
	} else {
		rec.prev = q.tail
		recs[q.tail].next = h
	}
	q.tail = h
	q.n++
}

// unlink removes record h, which the queue holds, keeping the other
// records' order.
func (q *queue) unlink(recs []pkRec, h uint16) {
	next, prev := recs[h].next, recs[h].prev
	if prev == nilHandle {
		q.head = next
	} else {
		recs[prev].next = next
	}
	if next == nilHandle {
		q.tail = prev
	} else {
		recs[next].prev = prev
	}
	q.n--
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
