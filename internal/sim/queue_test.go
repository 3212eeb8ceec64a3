package sim

// queue_test.go covers the event queue's edge cases — same-tick
// event/clock ordering, delays on both sides of the ring's span and past
// 2^32 ticks, events a clocked component leaves behind for the far heap,
// a replay-shaped burst of far events, scheduling at or before the
// current tick — and mirrors the whole structure against a plain binary
// heap with a randomized differential test.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---- reference implementation: a plain binary heap ----

type refEvent struct {
	at  Ticks
	seq uint64
	id  int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// refEngine implements the engine's event semantics on a plain heap: dispatch in
// (at, seq) order, past times clamped to now at schedule time.
type refEngine struct {
	now    Ticks
	seq    uint64
	events refQueue
}

func (r *refEngine) schedule(at Ticks, id int) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	heap.Push(&r.events, &refEvent{at: at, seq: r.seq, id: id})
}

// run advances to `until`, appending dispatched ids to order; onDispatch
// may schedule more events.
func (r *refEngine) run(until Ticks, onDispatch func(id int)) []int {
	var order []int
	for len(r.events) > 0 {
		next := r.events[0].at
		if next < r.now {
			next = r.now
		}
		if next > until {
			break
		}
		r.now = next
		for len(r.events) > 0 && r.events[0].at <= r.now {
			ev := heap.Pop(&r.events).(*refEvent)
			order = append(order, ev.id)
			if onDispatch != nil {
				onDispatch(ev.id)
			}
		}
		if r.now == until {
			return order
		}
		r.now++
	}
	if r.now < until {
		r.now = until
	}
	return order
}

// ---- queue edge cases ----

type clockedFunc func(Ticks)

func (f clockedFunc) Tick(now Ticks) { f(now) }

// TestQueueSameTickEventThenClock pins the intra-tick order: events due
// at a tick run before that tick's clock edges, and an event scheduled
// at the current tick by a clocked component runs on the following tick.
func TestQueueSameTickEventThenClock(t *testing.T) {
	e := NewEngine()
	var seq []string
	e.AddClock(10, 0, clockedFunc(func(now Ticks) {
		seq = append(seq, "clock")
		if now == 10 {
			e.Schedule(now, func() { seq = append(seq, "clock-scheduled") })
		}
	}))
	e.Schedule(10, func() { seq = append(seq, "event") })
	e.Run(30)
	// Tick 0: clock. Tick 10: event then clock (which schedules at 10).
	// Tick 11: the clock-scheduled event (following tick, before any
	// edge). Ticks 20, 30: clock.
	want := []string{"clock", "event", "clock", "clock-scheduled", "clock", "clock"}
	if len(seq) != len(want) {
		t.Fatalf("seq = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

// TestQueueFarFuture schedules events on both sides of the ring's span,
// several ring rotations ahead and past 2^32 ticks, and checks dispatch
// times.
func TestQueueFarFuture(t *testing.T) {
	e := NewEngine()
	delays := []Ticks{
		1, 95, 876,
		1023, 1024, 1025, // the ring's span
		3*1024 + 7, 5120, // several rotations
		1<<32 - 1, 1 << 32, 1<<32 + 12345, 1 << 40, // past 2^32
	}
	got := make([]Ticks, len(delays))
	for i, d := range delays {
		at, idx := d, i
		e.Schedule(at, func() { got[idx] = e.Now() })
	}
	e.Run(1<<40 + 20000)
	for i, d := range delays {
		if got[i] != d {
			t.Errorf("event %d (at %d) ran at %d", i, d, got[i])
		}
	}
}

// TestQueueRetiredBeforeFar pins the order on the tick after a clocked
// component posts for its own tick: the retired events, in post order,
// run ahead of a far event due on that next tick, which runs ahead of a
// near event posted for it later.
func TestQueueRetiredBeforeFar(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.AddClock(1000, 0, clockedFunc(func(now Ticks) {
		if now == 2000 {
			e.Schedule(now, log("stale-1"))
			e.Schedule(now+1, log("near"))
			e.Schedule(now, log("stale-2"))
			e.Schedule(now, log("stale-3"))
		}
	}))
	e.Schedule(2001, log("far")) // 2001 ticks ahead: the far heap
	e.Run(2500)
	want := []string{"stale-1", "stale-2", "stale-3", "far", "near"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestQueueFarBurstPostOrder posts 1,000 events for one far tick before
// Run, as a replayed trace does, and checks they dispatch in post order
// at that tick.
func TestQueueFarBurstPostOrder(t *testing.T) {
	const at = 50000
	e := NewEngine()
	var got []int
	h := e.RegisterHandler(func(args EventArgs) {
		if e.Now() != at {
			t.Fatalf("event %d ran at %d, want %d", args.A, e.Now(), at)
		}
		got = append(got, int(args.A))
	})
	for i := 0; i < 1000; i++ {
		e.Post(at, h, EventArgs{A: int64(i)})
	}
	e.Run(at + 1)
	if len(got) != 1000 {
		t.Fatalf("dispatched %d events, want 1000", len(got))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("dispatch %d ran event %d, want post order", i, id)
		}
	}
}

// TestQueueScheduleAtOrBeforeNow checks the clamping rule: scheduling at
// or before the current tick dispatches at the next opportunity, in
// schedule order, never rewinding time.
func TestQueueScheduleAtOrBeforeNow(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(100, func() {
		e.Schedule(50, func() { order = append(order, 1) })  // past: clamped to 100
		e.Schedule(100, func() { order = append(order, 2) }) // now: same tick
		e.Schedule(0, func() { order = append(order, 3) })   // past: clamped
	})
	e.Run(200)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 200 {
		t.Fatalf("now = %d, want 200", e.Now())
	}
}

// TestPostRegisteredHandler exercises the static-callback API directly:
// payloads arrive intact, in (at, seq) order, from the ring and the far
// heap.
func TestPostRegisteredHandler(t *testing.T) {
	e := NewEngine()
	type rec struct {
		a, b int64
		at   Ticks
	}
	var got []rec
	h := e.RegisterHandler(func(args EventArgs) {
		got = append(got, rec{args.A, args.B, e.Now()})
	})
	e.Post(500, h, EventArgs{A: 2, B: 20})
	e.Post(5, h, EventArgs{A: 1, B: 10})
	e.PostDelay(1<<18, h, EventArgs{A: 3, B: 30})
	e.Run(1 << 20)
	want := []rec{{1, 10, 5}, {2, 20, 500}, {3, 30, 1 << 18}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// horizonFor draws event id's chained-schedule delay deterministically,
// so the engine and the reference heap make identical decisions without
// sharing state. The draws fall on both sides of the ring's span.
func horizonFor(trial, id int, now Ticks) Ticks {
	r := rand.New(rand.NewSource(int64(id)*2654435761 + int64(trial)))
	switch r.Intn(7) {
	case 0:
		return now // same tick
	case 1:
		return now + Ticks(r.Intn(16)) // near
	case 2:
		return now + Ticks(r.Intn(1024)) // anywhere in the ring
	case 3:
		return now + 1022 + Ticks(r.Intn(5)) // 1,022..1,026: the span's edge
	case 4:
		return now + 1024 + Ticks(r.Intn(1<<17)) // far heap
	case 5:
		return now - Ticks(r.Intn(64)) // past: clamps
	default:
		return now + 1<<32 + Ticks(r.Intn(4096)) // past 2^32
	}
}

// TestQueueDifferentialRandom mirrors the queue against the reference
// heap over randomized workloads: bursts of schedules at mixed horizons
// (same tick, near, the ring's edge, far, past 2^32) and chained
// re-scheduling from inside dispatches. Dispatch order must match id for
// id.
func TestQueueDifferentialRandom(t *testing.T) {
	const chainLimit = 4000
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))

		// Seed burst, shared verbatim by both engines.
		type seeded struct {
			at Ticks
			id int
		}
		var seeds []seeded
		for i := 0; i < 60+rng.Intn(60); i++ {
			seeds = append(seeds, seeded{at: horizonFor(trial, -i-1, 0), id: i + 1})
		}

		// Engine: every dispatch of an id divisible by 3 chains one
		// more event at horizonFor(nextID).
		e := NewEngine()
		idSrc := len(seeds)
		var got []int
		var chain func(id int) func()
		chain = func(id int) func() {
			return func() {
				got = append(got, id)
				if id%3 == 0 && id < chainLimit {
					idSrc++
					nid := idSrc
					e.Schedule(horizonFor(trial, nid, e.Now()), chain(nid))
				}
			}
		}
		for _, s := range seeds {
			e.Schedule(s.at, chain(s.id))
		}
		e.Run(1 << 40)

		// Reference heap with the identical chaining rule.
		ref := &refEngine{}
		refIDSrc := len(seeds)
		for _, s := range seeds {
			ref.schedule(s.at, s.id)
		}
		refOrder := ref.run(1<<40, func(id int) {
			if id%3 == 0 && id < chainLimit {
				refIDSrc++
				ref.schedule(horizonFor(trial, refIDSrc, ref.now), refIDSrc)
			}
		})

		if len(got) != len(refOrder) {
			t.Fatalf("trial %d: engine dispatched %d events, heap %d", trial, len(got), len(refOrder))
		}
		for i := range got {
			if got[i] != refOrder[i] {
				t.Fatalf("trial %d: dispatch %d: engine ran id %d, heap id %d", trial, i, got[i], refOrder[i])
			}
		}
	}
}

// TestQueueSegmentedRuns splits one workload across many short Run calls
// with arbitrary boundaries (including boundaries landing exactly on
// event ticks) and checks the dispatch order still matches the heap.
func TestQueueSegmentedRuns(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 101))
		type seeded struct {
			at Ticks
			id int
		}
		var seeds []seeded
		for i := 0; i < 80; i++ {
			seeds = append(seeds, seeded{at: Ticks(rng.Intn(3000)), id: i + 1})
		}

		e := NewEngine()
		var got []int
		for _, s := range seeds {
			id := s.id
			e.Schedule(s.at, func() { got = append(got, id) })
		}
		ref := &refEngine{}
		for _, s := range seeds {
			ref.schedule(s.at, s.id)
		}
		refOrder := ref.run(1<<20, nil)

		until := Ticks(0)
		for until < 4000 {
			until += Ticks(rng.Intn(500))
			e.Run(until)
		}
		e.Run(1 << 20)

		if len(got) != len(refOrder) {
			t.Fatalf("trial %d: engine dispatched %d events, heap %d", trial, len(got), len(refOrder))
		}
		for i := range got {
			if got[i] != refOrder[i] {
				t.Fatalf("trial %d: dispatch %d: engine ran id %d, heap id %d", trial, i, got[i], refOrder[i])
			}
		}
	}
}
