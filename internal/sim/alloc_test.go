package sim

import "testing"

// TestEngineDispatchAllocs pins the zero-allocation contract of the
// steady-state dispatch loop: posting events against registered handlers
// and running them must not allocate once the node free list has warmed.
func TestEngineDispatchAllocs(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := e.RegisterHandler(func(args EventArgs) { fired++ })
	// Warm the free list past the test's in-flight high-water mark.
	for i := 0; i < 64; i++ {
		e.Post(Ticks(i), h, EventArgs{})
	}
	e.Run(64)

	at := e.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		at += 7
		e.Post(at, h, EventArgs{A: 1, B: 2})
		e.Run(at)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Post+dispatch allocates %.2f/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("handler never fired")
	}
}

// TestEngineSelfReschedulingAllocs covers the poll pattern (a handler
// that re-posts itself): the cancellation poll and protocol-step style
// events must stay allocation-free.
func TestEngineSelfReschedulingAllocs(t *testing.T) {
	e := NewEngine()
	var h HandlerID
	h = e.RegisterHandler(func(args EventArgs) {
		e.PostDelay(5, h, args)
	})
	e.Post(0, h, EventArgs{})
	e.Run(100) // warm

	at := e.Now()
	allocs := testing.AllocsPerRun(500, func() {
		at += 50
		e.Run(at)
	})
	if allocs != 0 {
		t.Fatalf("self-rescheduling dispatch allocates %.2f/op, want 0", allocs)
	}
}

// TestEngineFarSelfReschedulingAllocs covers the cancellation poll's
// shape: a closure re-scheduling itself 5,120 ticks ahead, past the
// ring's span, so every dispatch goes through the far heap.
func TestEngineFarSelfReschedulingAllocs(t *testing.T) {
	const delay = 5120
	e := NewEngine()
	polls := 0
	var poll func()
	poll = func() {
		polls++
		e.ScheduleDelay(delay, poll)
	}
	e.ScheduleDelay(delay, poll)
	e.Run(4 * delay) // warm

	at := e.Now()
	allocs := testing.AllocsPerRun(500, func() {
		at += 3 * delay
		e.Run(at)
	})
	if allocs != 0 {
		t.Fatalf("far self-rescheduling dispatch allocates %.2f/op, want 0", allocs)
	}
	if want := int(at / delay); polls != want {
		t.Fatalf("poll ran %d times, want %d", polls, want)
	}
}
