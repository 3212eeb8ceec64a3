package sim

// Clocked is a component driven on every edge of a clock.
type Clocked interface {
	Tick(now Ticks)
}

// clockDomain drives a set of components every period ticks.
type clockDomain struct {
	period     Ticks
	phase      Ticks
	components []Clocked
}

func (d *clockDomain) nextEdgeAt(now Ticks) Ticks {
	if now <= d.phase {
		return d.phase
	}
	k := (now - d.phase + d.period - 1) / d.period
	return d.phase + k*d.period
}

// HandlerID names a callback registered with RegisterHandler.
type HandlerID uint32

// EventArgs is the small fixed-size payload carried by a scheduled
// event: two integer words and one pointer-shaped reference. Posting an
// event copies the struct into a pooled node, so steady-state scheduling
// performs no heap allocation (storing a pointer, func, or other
// pointer-shaped value in P does not allocate either).
type EventArgs struct {
	A, B int64
	P    any
}

// Handler is a static callback registered once at setup and invoked for
// every event posted to it. Handlers needing the current time read it
// from the engine they captured at registration.
type Handler func(args EventArgs)

// funcHandler is the built-in handler behind the Schedule adapter: its
// payload is the closure to call.
const funcHandler HandlerID = 0

// Engine is a deterministic single-threaded simulation engine combining a
// cycle-driven clock model (for the router pipelines) with an event queue
// (for link arrivals, memory responses, and other timed callbacks). The
// queue is a ring of near-tick slots plus a heap of far events over pooled
// event nodes (see queue.go), so steady-state scheduling allocates nothing.
//
// Dispatch order within one tick: first all events due at the tick (in
// (time, schedule) order, including events scheduled for the same tick by
// earlier events), then all clock domains whose edge falls on the tick,
// each firing its components in registration order. An event scheduled
// for the current tick by a clocked component runs on the following tick;
// this keeps the cycle semantics strictly causal.
type Engine struct {
	now      Ticks
	seq      uint64
	q        eventQueue
	handlers []Handler
	domains  []*clockDomain
	stopped  bool
	// inTick is set when Run returned at its until tick after the tick's
	// clock edges: the next Run leaves the tick first, so its edges and
	// the events they posted for it do not run again.
	inTick bool
}

// NewEngine returns an engine with time at zero.
func NewEngine() *Engine {
	e := &Engine{}
	// HandlerID 0 is the Schedule(fn) adapter.
	e.handlers = append(e.handlers, func(args EventArgs) {
		args.P.(func())()
	})
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Ticks { return e.now }

// RegisterHandler adds a static callback and returns its id. Register
// handlers at setup time; Post then schedules allocation-free events
// against them. Handlers are never unregistered.
func (e *Engine) RegisterHandler(fn Handler) HandlerID {
	if fn == nil {
		panic("sim: RegisterHandler with nil handler")
	}
	e.handlers = append(e.handlers, fn)
	return HandlerID(len(e.handlers) - 1)
}

// Post schedules handler h to run at the given absolute tick with the
// given payload. Posting at or before the current tick runs the handler
// at the next dispatch opportunity; time never rewinds.
func (e *Engine) Post(at Ticks, h HandlerID, args EventArgs) {
	if int(h) >= len(e.handlers) {
		panic("sim: Post with unregistered handler")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	n := e.q.alloc()
	n.at, n.seq, n.h, n.args = at, e.seq, h, args
	e.q.push(n, e.now)
}

// PostDelay posts handler h after delay ticks.
func (e *Engine) PostDelay(delay Ticks, h HandlerID, args EventArgs) {
	e.Post(e.now+delay, h, args)
}

// Schedule runs fn at the given absolute tick. It is a thin adapter over
// Post: the closure itself is the only allocation, so prefer
// RegisterHandler/Post on hot paths. Scheduling at or before the current
// tick runs the callback at the next dispatch opportunity.
func (e *Engine) Schedule(at Ticks, fn func()) {
	e.Post(at, funcHandler, EventArgs{P: fn})
}

// ScheduleDelay runs fn after delay ticks.
func (e *Engine) ScheduleDelay(delay Ticks, fn func()) { e.Schedule(e.now+delay, fn) }

// AddClock registers a clock domain with the given period and phase.
// Components attached to the domain tick at phase, phase+period, ...
func (e *Engine) AddClock(period, phase Ticks, components ...Clocked) {
	if period <= 0 {
		panic("sim: clock period must be positive")
	}
	e.domains = append(e.domains, &clockDomain{period: period, phase: phase, components: components})
}

// Attach adds components to the most recently added clock domain.
func (e *Engine) Attach(components ...Clocked) {
	d := e.domains[len(e.domains)-1]
	d.components = append(d.components, components...)
}

// Stop halts Run before the next dispatch.
func (e *Engine) Stop() { e.stopped = true }

// Run advances simulated time up to and including tick `until`,
// dispatching events and clock edges in deterministic order. Each pass
// of the loop is one tick with work, in the phase order a ShardGroup
// repeats across its engines: move to the tick, dispatch its due events,
// fire its clock edges, leave it. A Run that ends on a tick with work
// stays in it, so Now() reads until; the next Run leaves it first, which
// makes Run(a) then Run(b) the same as Run(b).
func (e *Engine) Run(until Ticks) {
	e.stopped = false
	if e.inTick {
		if until <= e.now {
			return
		}
		e.inTick = false
		e.endTick()
	}
	for !e.stopped {
		next, ok := e.nextDispatch()
		if !ok || next > until {
			e.moveTo(until)
			return
		}
		e.moveTo(next)
		if !e.dispatchDue() {
			return
		}
		e.tickDomains()
		if next == until {
			e.inTick = true
			return
		}
		e.endTick()
	}
}

// nextDispatch returns the earliest tick >= e.now with pending work:
// an event or a clock edge.
func (e *Engine) nextDispatch() (Ticks, bool) {
	best, found := e.nextEventAt()
	for _, d := range e.domains {
		if len(d.components) == 0 {
			continue
		}
		if t := d.nextEdgeAt(e.now); !found || t < best {
			best, found = t, true
		}
	}
	return best, found
}

// nextEventAt returns the earliest pending event time, clamped to now.
func (e *Engine) nextEventAt() (Ticks, bool) {
	t, ok := e.q.nextAt(e.now)
	if ok && t < e.now {
		t = e.now
	}
	return t, ok
}

// moveTo advances the clock to t; time never rewinds. Callers pass a
// tick no later than the engine's earliest pending event, so the queue's
// ring never holds a tick the clock has passed.
func (e *Engine) moveTo(t Ticks) {
	if t > e.now {
		e.now = t
	}
}

// dispatchDue runs every event due at the current tick, including events
// scheduled for this tick by earlier ones, in (time, seq) order. It
// reports false when a handler stopped the engine.
func (e *Engine) dispatchDue() bool {
	for {
		n := e.q.popDue(e.now)
		if n == nil {
			return true
		}
		fn := e.handlers[n.h]
		args := n.args
		e.q.release(n)
		fn(args)
		if e.stopped {
			return false
		}
	}
}

// tickDomains fires every clock domain whose edge falls on the current
// tick, components in registration order.
func (e *Engine) tickDomains() {
	for _, d := range e.domains {
		if e.now >= d.phase && (e.now-d.phase)%d.period == 0 {
			for _, c := range d.components {
				c.Tick(e.now)
			}
		}
	}
}

// endTick leaves the current tick: the events clocked components posted
// for it move to the far heap, to run first on the next tick with work,
// and the clock steps.
func (e *Engine) endTick() {
	e.q.retire(e.now)
	e.now++
}
