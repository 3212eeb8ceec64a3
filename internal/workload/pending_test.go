package workload

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/network"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
)

// tickFunc adapts a function to sim.Clocked.
type tickFunc func(now sim.Ticks)

func (f tickFunc) Tick(now sim.Ticks) { f(now) }

// TestPendingIndexMatchesQueues checks the generator's index of non-empty
// injection queues against the queues: on an overloaded 5x5 torus (100
// queues, so the index spans two words), after every generator tick, bit
// slot is set exactly when pending[slot] holds a packet. The run must
// back some queue up, or the check proves nothing.
func TestPendingIndexMatchesQueues(t *testing.T) {
	eng := sim.NewEngine()
	col := stats.NewCollector(0)
	rcfg := router.DefaultConfig(core.KindSPAABase)
	rcfg.Seed = 1
	net, err := network.New(network.Config{Width: 5, Height: 5, Router: rcfg}, eng, col)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Config{Process: NewBernoulli(0.5), Seed: 1}, net, eng, col)
	backedUp := 0
	check := tickFunc(func(now sim.Ticks) {
		for slot := range gen.pending {
			indexed := gen.pendIdx[slot/64]&(1<<(slot%64)) != 0
			queued := gen.pending[slot].len()
			if indexed != (queued > 0) {
				t.Fatalf("tick %d: slot %d holds %d packets, index bit %v", now, slot, queued, indexed)
			}
			if queued > 0 {
				backedUp++
			}
		}
	})
	eng.AddClock(rcfg.RouterPeriod, 0, gen, check)
	eng.Run(3000 * rcfg.RouterPeriod)
	if backedUp == 0 {
		t.Fatal("no injection queue ever held a packet; the index check was vacuous")
	}
	if gen.Completed() == 0 {
		t.Fatal("no transactions completed; the workload never ran")
	}
	t.Logf("%d queue-ticks backed up", backedUp)
}

// TestGeneratorInjectsBeforeQueueing checks that a packet finding its
// injection queue empty goes to the router before it touches the queue:
// at light load the router always has room, so after a 4,000-cycle run
// every queue is still unallocated although thousands of packets were
// injected.
func TestGeneratorInjectsBeforeQueueing(t *testing.T) {
	eng := sim.NewEngine()
	col := stats.NewCollector(0)
	rcfg := router.DefaultConfig(core.KindSPAARotary)
	net, err := network.New(network.Config{Width: 4, Height: 4, Router: rcfg}, eng, col)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Config{Process: NewBernoulli(0.01), MaxOutstanding: 16, Seed: 1}, net, eng, col)
	eng.AddClock(rcfg.RouterPeriod, 0, gen)
	eng.Run(4000 * rcfg.RouterPeriod)
	if n := net.TotalCounters().Injected; n < 1000 {
		t.Fatalf("%d packets injected, want the light load's thousand or more", n)
	}
	for slot := range gen.pending {
		if q := &gen.pending[slot]; q.buf != nil {
			t.Fatalf("slot %d's queue was pushed (buffer of %d): a packet was queued though the router had room", slot, cap(q.buf))
		}
	}
}
