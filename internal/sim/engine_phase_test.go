package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

type tickCounter struct {
	ticks []Ticks
}

func (c *tickCounter) Tick(now Ticks) { c.ticks = append(c.ticks, now) }

func TestClockPhaseOffset(t *testing.T) {
	e := NewEngine()
	c := &tickCounter{}
	e.AddClock(10, 3, c) // edges at 3, 13, 23, ...
	e.Run(35)
	want := []Ticks{3, 13, 23, 33}
	if len(c.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", c.ticks, want)
	}
	for i := range want {
		if c.ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", c.ticks, want)
		}
	}
}

func TestTwoClockDomainRatio(t *testing.T) {
	// The 21364's 3:2 clock ratio: over any LCM window the router clock
	// fires exactly 3 edges per 2 link edges.
	e := NewEngine()
	router := &tickCounter{}
	link := &tickCounter{}
	e.AddClock(RouterPeriod, 0, router)
	e.AddClock(LinkPeriod, 0, link)
	e.Run(30*RouterPeriod - 1)
	if len(router.ticks)*2 != len(link.ticks)*3 {
		t.Fatalf("clock ratio broken: %d router edges vs %d link edges",
			len(router.ticks), len(link.ticks))
	}
}

func TestAttachAddsToLatestDomain(t *testing.T) {
	e := NewEngine()
	a, b := &tickCounter{}, &tickCounter{}
	e.AddClock(10, 0, a)
	e.Attach(b)
	e.Run(20)
	if len(a.ticks) != len(b.ticks) || len(a.ticks) != 3 {
		t.Fatalf("attached component ticked %d vs %d", len(b.ticks), len(a.ticks))
	}
}

// TestEngineEventEdgeInterleavingProperty: for random event times, every
// event fires exactly once, in time order, and never after an edge of the
// same tick.
func TestEngineEventEdgeInterleavingProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := NewEngine()
		var fired []Ticks
		for _, r := range raw {
			at := Ticks(r)
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run(300)
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// edgePoster records each clock edge and, on each, posts an event for
// the edge's own tick, recording the tick the event runs at.
type edgePoster struct {
	e   *Engine
	log *[]string
}

func (p edgePoster) Tick(now Ticks) {
	*p.log = append(*p.log, fmt.Sprintf("edge %d", now))
	p.e.Schedule(now, func() { *p.log = append(*p.log, fmt.Sprintf("event of edge %d at %d", now, p.e.Now())) })
}

// TestSplitRunMatchesOneRun checks that Run(a) then Run(b) fires the same
// edges and events at the same ticks as Run(b) alone, for splits on and
// between edge ticks and a repeated until, and that each Run leaves Now()
// at its until.
func TestSplitRunMatchesOneRun(t *testing.T) {
	run := func(untils ...Ticks) string {
		var log []string
		e := NewEngine()
		e.AddClock(10, 0, edgePoster{e, &log})
		for _, u := range untils {
			e.Run(u)
			if e.Now() != u {
				t.Errorf("Run(%d) of %d left Now() at %d", u, untils, e.Now())
			}
		}
		return strings.Join(log, "\n")
	}
	whole := run(20)
	if want := "edge 0\nevent of edge 0 at 1\nedge 10\nevent of edge 10 at 11\nedge 20"; whole != want {
		t.Fatalf("Run(20):\n%s\nwant:\n%s", whole, want)
	}
	for _, untils := range [][]Ticks{{10, 20}, {5, 10, 15, 20}, {10, 10, 20}, {0, 9, 10, 11, 20}} {
		if got := run(untils...); got != whole {
			t.Errorf("Run %d:\n%s\nwant, as Run(20):\n%s", untils, got, whole)
		}
	}
}

func TestEngineNoWorkReturnsImmediately(t *testing.T) {
	e := NewEngine()
	e.Run(1000) // no events, no clocks: must not spin
	if e.Now() > 1000 {
		t.Fatalf("time overran: %d", e.Now())
	}
}
