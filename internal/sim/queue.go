package sim

// queue.go is the engine's event queue: a ring of FIFO slots for near
// events plus a binary min-heap for the rest, both over intrusive event
// nodes drawn from a free list. Steady-state scheduling allocates
// nothing: a node is recycled the moment its event dispatches, a slot's
// membership is the nodes' own next pointers, and the heap's slice keeps
// its capacity.
//
// Ring. An event due fewer than ringSlots ticks after the current tick
// goes to slot at&ringMask. Every ring event lies in [now, now+ringSlots),
// so a slot holds events of one tick only, appended in schedule order;
// each slot is therefore already in (at, seq) order. An occupancy bitmap
// makes "find the next busy slot" a few TrailingZeros64 instructions.
//
// Far heap. Every other event waits in a min-heap on (at, seq): events
// due ringSlots or more ticks ahead, and the events a clocked component
// posts for the current tick, which the engine moves here when it leaves
// the tick (retire) and which the heap orders ahead of every later event.
// No node ever moves from the heap into the ring: dispatch takes the
// earlier of the current slot's head and the heap's root, which keeps the
// engine's (at, seq) contract exactly.

import "math/bits"

// ringSlots is the ring's span in ticks. It covers every recurring delay
// of the timing model: a link flight after the post-arbitration pipeline
// (95 ticks), a sink delivery (at most about 230), an L2 response (250)
// and a memory response (876). The cancellation poll (5,120), the
// checker sweep (2,560) and a replayed trace's injections wait in the
// far heap, which only makes them slower to schedule, never misordered.
const (
	ringSlots = 1 << 10
	ringMask  = ringSlots - 1
)

// eventNode is one scheduled event: an intrusive list node carrying a
// registered-handler id and its small fixed-size payload.
type eventNode struct {
	next *eventNode
	at   Ticks
	seq  uint64
	h    HandlerID
	args EventArgs
}

// before reports whether n dispatches ahead of m.
func (n *eventNode) before(m *eventNode) bool {
	return n.at < m.at || n.at == m.at && n.seq < m.seq
}

// ringSlot is one tick's FIFO of events.
type ringSlot struct {
	head, tail *eventNode
}

// eventQueue is the ring, the far heap and the node free list.
type eventQueue struct {
	ring [ringSlots]ringSlot
	occ  [ringSlots / 64]uint64
	far  []*eventNode // binary min-heap in (at, seq) order
	free *eventNode
}

// alloc takes a node from the free list, or allocates one the first time
// the queue grows past its high-water mark.
func (q *eventQueue) alloc() *eventNode {
	if n := q.free; n != nil {
		q.free = n.next
		n.next = nil
		return n
	}
	return &eventNode{}
}

// release recycles a dispatched node.
func (q *eventQueue) release(n *eventNode) {
	n.args = EventArgs{} // drop payload references for the GC
	n.next = q.free
	q.free = n
}

// push queues n. The caller guarantees n.at >= now.
func (q *eventQueue) push(n *eventNode, now Ticks) {
	if n.at-now >= ringSlots {
		q.pushFar(n)
		return
	}
	i := int(n.at & ringMask)
	s := &q.ring[i]
	if s.tail == nil {
		s.head = n
		q.occ[i>>6] |= 1 << uint(i&63)
	} else {
		s.tail.next = n
	}
	s.tail = n
}

// retire moves the events still queued for tick now, which clocked
// components posted after the tick's dispatch, to the far heap, so the
// ring holds no past tick once the engine steps past now.
func (q *eventQueue) retire(now Ticks) {
	i := int(now & ringMask)
	s := &q.ring[i]
	if s.head == nil {
		return
	}
	for n := s.head; n != nil; {
		next := n.next
		n.next = nil
		q.pushFar(n)
		n = next
	}
	s.head, s.tail = nil, nil
	q.occ[i>>6] &^= 1 << uint(i&63)
}

// popDue removes and returns the earliest event with at <= now, in
// (at, seq) order, or nil when none is due.
func (q *eventQueue) popDue(now Ticks) *eventNode {
	i := int(now & ringMask)
	s := &q.ring[i]
	n := s.head
	if len(q.far) > 0 && q.far[0].at <= now && (n == nil || q.far[0].before(n)) {
		return q.popFar()
	}
	if n == nil {
		return nil
	}
	s.head = n.next
	if s.head == nil {
		s.tail = nil
		q.occ[i>>6] &^= 1 << uint(i&63)
	}
	n.next = nil
	return n
}

// nextAt returns the earliest pending event time: the heap's root or the
// first occupied slot at or after now, circularly.
func (q *eventQueue) nextAt(now Ticks) (Ticks, bool) {
	var best Ticks
	found := len(q.far) > 0
	if found {
		best = q.far[0].at
	}
	i := int(now & ringMask)
	w := i >> 6
	word := q.occ[w] &^ (1<<uint(i&63) - 1)
	// One pass over the words from now's, then now's word again for the
	// slots below now's, which hold the ring's latest ticks.
	for k := 0; k <= len(q.occ); k++ {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			if t := now + Ticks((slot-i)&ringMask); !found || t < best {
				best = t
			}
			return best, true
		}
		w = (w + 1) % len(q.occ)
		word = q.occ[w]
	}
	return best, found
}

// pushFar adds n to the far heap.
func (q *eventQueue) pushFar(n *eventNode) {
	h := append(q.far, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !n.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	q.far = h
}

// popFar removes and returns the far heap's root.
func (q *eventQueue) popFar() *eventNode {
	h := q.far
	root := h[0]
	last := len(h) - 1
	n := h[last]
	h[last] = nil
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && h[c+1].before(h[c]) {
				c++
			}
			if !h[c].before(n) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = n
	}
	q.far = h
	return root
}
