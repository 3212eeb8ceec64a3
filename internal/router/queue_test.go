package router

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// queueContents walks q from its head through the next links, stopping
// at nilHandle or, on a cycle, after one step more than the slab holds
// records.
func queueContents(s *pkSlab, q *queue) []uint16 {
	var got []uint16
	if q.Len() == 0 {
		return got
	}
	for h := q.head; h != nilHandle && len(got) <= len(s.recs); h = s.recs[h].next {
		got = append(got, h)
	}
	return got
}

// pushNew checks a new record into q and returns its handle.
func pushNew(s *pkSlab, q *queue) uint16 {
	h := s.alloc()
	s.recs[h] = pkRec{}
	q.push(s.recs, h)
	return h
}

// newTestSlab returns a slab holding New's first block.
func newTestSlab() *pkSlab {
	s := &pkSlab{}
	s.grow()
	return s
}

func TestQueueFIFOOrder(t *testing.T) {
	s := newTestSlab()
	q := queue{cap: 4}
	var hs []uint16
	for i := 0; i < 4; i++ {
		hs = append(hs, pushNew(s, &q))
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	q.unlink(s.recs, hs[0])
	s.release(hs[0])
	hs = append(hs[1:], pushNew(s, &q))
	if got := queueContents(s, &q); !slices.Equal(got, hs) {
		t.Fatalf("contents = %v, want %v", got, hs)
	}
}

func TestQueueMidRemovalPreservesOrder(t *testing.T) {
	s := newTestSlab()
	q := queue{cap: 8}
	var hs []uint16
	for i := 0; i < 6; i++ {
		hs = append(hs, pushNew(s, &q))
	}
	for _, h := range hs[:2] {
		q.unlink(s.recs, h)
		s.release(h)
	}
	hs = hs[2:]
	// The released records come back first, so the queue's links now
	// run backwards through the slab as well as forwards.
	for i := 0; i < 4; i++ {
		hs = append(hs, pushNew(s, &q))
	}
	q.unlink(s.recs, hs[3])
	hs = slices.Delete(hs, 3, 4)
	if got := queueContents(s, &q); !slices.Equal(got, hs) || q.Len() != len(hs) {
		t.Fatalf("contents = %v (len %d), want %v", got, q.Len(), hs)
	}
}

// TestQueueUnlinkByHandle unlinks the middle, head and tail records of a
// queue by handle, checking its head, tail and length after each.
func TestQueueUnlinkByHandle(t *testing.T) {
	s := newTestSlab()
	q := queue{cap: 4}
	a, b, c := pushNew(s, &q), pushNew(s, &q), pushNew(s, &q)
	for _, step := range []struct {
		h    uint16
		want []uint16
	}{
		{b, []uint16{a, c}},
		{a, []uint16{c}},
		{c, nil},
	} {
		q.unlink(s.recs, step.h)
		got := queueContents(s, &q)
		if !slices.Equal(got, step.want) || q.Len() != len(step.want) {
			t.Fatalf("unlink %d: contents = %v (len %d), want %v", step.h, got, q.Len(), step.want)
		}
		if len(got) > 0 && (q.head != got[0] || q.tail != got[len(got)-1]) {
			t.Fatalf("unlink %d: head %d, tail %d, contents %v", step.h, q.head, q.tail, got)
		}
	}
	// An emptied queue takes new records as a fresh one does.
	d := pushNew(s, &q)
	if got := queueContents(s, &q); !slices.Equal(got, []uint16{d}) || q.head != d || q.tail != d {
		t.Fatalf("push after emptying: contents = %v, head %d, tail %d, want [%d]", got, q.head, q.tail, d)
	}
}

func TestQueuePushFullPanics(t *testing.T) {
	s := newTestSlab()
	q := queue{cap: 1}
	pushNew(s, &q)
	defer func() {
		if recover() == nil {
			t.Fatal("push on full queue did not panic")
		}
	}()
	pushNew(s, &q)
}

// TestQueueDifferentialSlice mirrors a queue against a plain slice over
// random push and unlink sequences that grow the slab past its first
// block. The queue shares the slab with a neighbour, as a router's 152
// queues share one, and the neighbour's contents must never change.
func TestQueueDifferentialSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := newTestSlab()
	neighbour := queue{cap: 4}
	var fixed []uint16
	for i := 0; i < 4; i++ {
		fixed = append(fixed, pushNew(s, &neighbour))
	}
	q := queue{cap: 48}
	var ref []uint16
	for step := 0; step < 20000; step++ {
		if len(ref) < 48 && (len(ref) == 0 || rng.Intn(2) == 0) {
			ref = append(ref, pushNew(s, &q))
		} else {
			i := rng.Intn(len(ref))
			q.unlink(s.recs, ref[i])
			s.release(ref[i])
			ref = slices.Delete(ref, i, i+1)
		}
		if got := queueContents(s, &q); !slices.Equal(got, ref) || q.Len() != len(ref) {
			t.Fatalf("step %d: queue %v (len %d), ref %v", step, got, q.Len(), ref)
		}
	}
	if len(s.recs) <= slabFirst {
		t.Fatalf("the slab never grew: %d records", len(s.recs))
	}
	if got := queueContents(s, &neighbour); !slices.Equal(got, fixed) {
		t.Fatalf("neighbour queue changed: %v, want %v", got, fixed)
	}
}

// FuzzRouterQueue drives three queues sharing one slab (capacities 1, 5
// and 40, so the slab grows) with a byte-coded sequence of pushes and
// unlinks, mirrored by plain slices. Each byte picks a queue (b%3); a
// byte below 0x80 pushes unless the queue is full, any other unlinks the
// queued record at position b>>2 modulo the length, if any. After every
// operation each queue must hold its slice's records in order, with its
// length, head and tail, and back links that retrace the forward ones;
// and every record must be reachable from exactly one list: the free
// list or one queue.
func FuzzRouterQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0x80, 0x81, 0x82})
	f.Add([]byte{2, 2, 2, 2, 2, 0x86, 2, 0x8a, 0xfe, 0x7f})
	f.Add(slices.Repeat([]byte{5, 8, 11, 0x9e}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := newTestSlab()
		qs := [3]queue{{cap: 1}, {cap: 5}, {cap: 40}}
		var refs [3][]uint16
		for step, b := range ops {
			k := int(b) % len(qs)
			q, ref := &qs[k], refs[k]
			switch {
			case b < 0x80 && !q.Full():
				refs[k] = append(ref, pushNew(s, q))
			case b >= 0x80 && len(ref) > 0:
				i := int(b>>2) % len(ref)
				q.unlink(s.recs, ref[i])
				s.release(ref[i])
				refs[k] = slices.Delete(ref, i, i+1)
			}
			seen := make([]int, len(s.recs))
			for j := range qs {
				q, ref := &qs[j], refs[j]
				got := queueContents(s, q)
				if !slices.Equal(got, ref) || q.Len() != len(ref) {
					t.Fatalf("step %d: queue %d holds %v (len %d), want %v", step, j, got, q.Len(), ref)
				}
				if len(ref) > 0 && (q.head != ref[0] || q.tail != ref[len(ref)-1]) {
					t.Fatalf("step %d: queue %d head %d, tail %d, want %d and %d",
						step, j, q.head, q.tail, ref[0], ref[len(ref)-1])
				}
				back := uint16(nilHandle)
				for _, h := range got {
					if s.recs[h].prev != back {
						t.Fatalf("step %d: queue %d record %d links back to %d, want %d", step, j, h, s.recs[h].prev, back)
					}
					back = h
					seen[h]++
				}
			}
			free := 0
			for h := s.free; h != nilHandle && free <= len(s.recs); h = s.recs[h].next {
				seen[h]++
				free++
			}
			for h, n := range seen {
				if n != 1 {
					t.Fatalf("step %d: record %d is reachable from %d lists, want 1 (free list holds %d of %d)",
						step, h, n, free, len(s.recs))
				}
			}
		}
	})
}

// TestArriveOutOfAgeOrderPanics checks the queues' age-order contract:
// findNomination stops a walk at the first packet younger than its best
// candidate, so a packet whose header arrived before the newest one in
// its queue must not be buffered. Arrivals into other queues, and ties
// in one queue, are accepted.
func TestArriveOutOfAgeOrderPanics(t *testing.T) {
	r, err := New(DefaultConfig(core.KindSPAARotary), 5, topology.NewTorus(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	req, fwd := vc.Of(packet.Request, vc.Adaptive), vc.Of(packet.Forward, vc.Adaptive)
	r.Arrive(packet.New(1, packet.Request, 4, 7, 0), ports.InWest, req, 100, nil)
	r.Arrive(packet.New(2, packet.Request, 4, 7, 0), ports.InWest, req, 100, nil)
	r.Arrive(packet.New(3, packet.Forward, 4, 7, 0), ports.InWest, fwd, 50, nil)
	r.Arrive(packet.New(4, packet.Request, 4, 7, 0), ports.InNorth, req, 50, nil)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "age order") {
			t.Fatalf("an arrival stamped before its queue's tail gave %q, want an age-order panic", msg)
		}
		if r.QueueLen(ports.InWest, req) != 2 {
			t.Errorf("the refused packet was queued: %d packets, want 2", r.QueueLen(ports.InWest, req))
		}
	}()
	r.Arrive(packet.New(5, packet.Request, 4, 7, 0), ports.InWest, req, 99, nil)
}

// TestQueueRecordLayout pins the sizes the router's memory rests on: a
// queue is an 8-byte header of 16-bit words, 152 of them per router,
// and a packet record stays 48 bytes with both of its 16-bit links.
func TestQueueRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(queue{}); size != 8 {
		t.Errorf("queue header is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(pkRec{}); size != 48 {
		t.Errorf("pkRec is %d bytes, want 48", size)
	}
}

// TestQueuesAtTheLinkLimit fills every queue of a router whose buffers
// hold the most packets New accepts, 8 × 8,191 = 65,528, so the slab
// grows to its cap of nilHandle records and hands out handles up to
// 65,527: every queue holds its packets in arrival order, and a full
// one still refuses an arrival. New refuses one buffer more per input
// port, and a negative capacity.
func TestQueuesAtTheLinkLimit(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	cfg.Buffers.Adaptive[packet.Request] += 8191 - cfg.Buffers.Total()
	r, err := New(cfg, 5, topology.NewTorus(4, 4))
	if err != nil {
		t.Fatalf("New refused %d buffers per input port: %v", cfg.Buffers.Total(), err)
	}
	id := uint64(0)
	for in := ports.In(0); in < ports.NumIn; in++ {
		for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
			for !r.queues[in][ch].Full() {
				id++
				r.Arrive(packet.New(id, ch.Class(), 4, 5, 0), in, ch, sim.Ticks(id), nil)
			}
		}
	}
	if n := r.Buffered(); n != 8*8191 || len(r.slab.recs) != nilHandle {
		t.Fatalf("buffered %d packets in a slab of %d records, want %d in %d", n, len(r.slab.recs), 8*8191, nilHandle)
	}
	for in := ports.In(0); in < ports.NumIn; in++ {
		for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
			q := &r.queues[in][ch]
			got := queueContents(&r.slab, q)
			if len(got) != cfg.Buffers.Capacity(ch) {
				t.Fatalf("%v/%v links %d packets, want %d", in, ch, len(got), cfg.Buffers.Capacity(ch))
			}
			for i := 1; i < len(got); i++ {
				if r.slab.recs[got[i]].pkt.ID <= r.slab.recs[got[i-1]].pkt.ID {
					t.Fatalf("%v/%v holds packet %d after %d", in, ch, r.slab.recs[got[i]].pkt.ID, r.slab.recs[got[i-1]].pkt.ID)
				}
			}
		}
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "buffer overflow") {
				t.Errorf("an arrival on a full queue gave %q, want a buffer overflow panic", msg)
			}
		}()
		r.Arrive(packet.New(id+1, packet.Request, 4, 5, 0), ports.InWest, vc.Of(packet.Request, vc.Adaptive), sim.Ticks(id+1), nil)
	}()

	cfg.Buffers.Adaptive[packet.Request]++
	if _, err := New(cfg, 5, topology.NewTorus(4, 4)); err == nil || !strings.Contains(err.Error(), "16-bit") {
		t.Errorf("New with %d buffers per input port gave %v, want a 16-bit link error", cfg.Buffers.Total(), err)
	}
	cfg = DefaultConfig(core.KindSPAABase)
	cfg.Buffers.DeadlockPerClass = -1
	if _, err := New(cfg, 5, topology.NewTorus(4, 4)); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("New with a negative capacity gave %v, want a negative-capacity error", err)
	}
}
