package sim

import (
	"testing"
	"testing/quick"
)

func TestTicksNS(t *testing.T) {
	if got := (TicksPerNS * 45).NS(); got != 45 {
		t.Errorf("45ns round trip = %v", got)
	}
	if got := RouterPeriod.NS(); got < 0.83 || got > 0.84 {
		t.Errorf("router period = %v ns, want ~0.833", got)
	}
	if got := LinkPeriod.NS(); got != 1.25 {
		t.Errorf("link period = %v ns, want 1.25", got)
	}
	if got := FromNS(73); got != 876 {
		t.Errorf("FromNS(73) = %d, want 876", got)
	}
	if got := FromNS(-1); got != 0 {
		t.Errorf("FromNS(-1) = %d, want 0", got)
	}
}

func TestFromNSRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		ns := float64(n)
		return FromNS(ns).NS() == ns
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineEventOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(20, func() { order = append(order, 2) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) }) // same tick: schedule order
	e.Schedule(30, func() { order = append(order, 4) })
	e.Run(25)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 25 {
		t.Fatalf("now = %d, want 25", e.Now())
	}
	e.Run(40)
	if len(order) != 4 || order[3] != 4 {
		t.Fatalf("order after resume = %v", order)
	}
}

func TestEngineEventCascade(t *testing.T) {
	e := NewEngine()
	var fired []Ticks
	e.Schedule(5, func() {
		fired = append(fired, e.Now())
		// An event scheduled for the current tick by another event runs on
		// the same tick, in schedule order.
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run(100)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 5 {
		t.Fatalf("fired = %v, want [5 5]", fired)
	}
}

type tickRecorder struct {
	name  string
	ticks *[]string
}

func (r *tickRecorder) Tick(now Ticks) {
	*r.ticks = append(*r.ticks, r.name)
}

func TestEngineClockDomains(t *testing.T) {
	e := NewEngine()
	var seq []string
	router := &tickRecorder{name: "r", ticks: &seq}
	link := &tickRecorder{name: "l", ticks: &seq}
	e.AddClock(RouterPeriod, 0, router)
	e.AddClock(LinkPeriod, 0, link)
	e.Run(30)
	// Router edges at 0,10,20,30; link edges at 0,15,30. Shared edges fire
	// in domain registration order.
	want := []string{"r", "l", "r", "l", "r", "r", "l"}
	if len(seq) != len(want) {
		t.Fatalf("seq = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestEngineEventBeforeEdge(t *testing.T) {
	e := NewEngine()
	var seq []string
	r := &tickRecorder{name: "edge", ticks: &seq}
	e.AddClock(10, 0, r)
	e.Schedule(10, func() { seq = append(seq, "event") })
	e.Run(10)
	if len(seq) != 3 || seq[1] != "event" || seq[2] != "edge" {
		t.Fatalf("seq = %v, want [edge event edge]", seq)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.Run(100)
	if n != 1 {
		t.Fatalf("n = %d, want 1 (stopped)", n)
	}
	e.Run(100)
	if n != 2 {
		t.Fatalf("n = %d after resume, want 2", n)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var at Ticks = -1
	e.Schedule(50, func() {
		e.Schedule(10, func() { at = e.Now() }) // in the past: clamped
	})
	e.Run(100)
	if at != 50 {
		t.Fatalf("past event ran at %d, want 50", at)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d has %d hits; distribution looks skewed", i, c)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestRNGPick(t *testing.T) {
	r := NewRNG(11)
	// Mask with bits {1, 5, 9}: every pick must land on a set bit.
	var mask uint64 = 1<<1 | 1<<5 | 1<<9
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		v := r.Pick(mask)
		if v != 1 && v != 5 && v != 9 {
			t.Fatalf("Pick landed on unset bit %d", v)
		}
		counts[v]++
	}
	for _, bit := range []int{1, 5, 9} {
		if counts[bit] < 800 {
			t.Errorf("Pick bit %d chosen only %d/3000 times", bit, counts[bit])
		}
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	childA := parent.Split()
	childB := parent.Split()
	if childA.Uint64() == childB.Uint64() {
		t.Error("split children produced identical first values")
	}
}
