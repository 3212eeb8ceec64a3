package vc

import (
	"testing"
	"testing/quick"

	"alpha21364/internal/packet"
)

func TestChannelCount(t *testing.T) {
	if NumChannels != 19 {
		t.Fatalf("NumChannels = %d, want 19 (the 21364 has 19 VCs)", NumChannels)
	}
}

func TestOfRoundTrip(t *testing.T) {
	seen := make(map[Channel]bool)
	for c := packet.Class(0); c < packet.NumClasses; c++ {
		subs := []Sub{Adaptive, VC0, VC1}
		if c == packet.Special {
			subs = []Sub{Adaptive}
		}
		for _, s := range subs {
			ch := Of(c, s)
			if seen[ch] {
				t.Fatalf("channel %d assigned twice", ch)
			}
			seen[ch] = true
			if ch.Class() != c {
				t.Errorf("Of(%v,%v).Class() = %v", c, s, ch.Class())
			}
			if ch.Sub() != s {
				t.Errorf("Of(%v,%v).Sub() = %v", c, s, ch.Sub())
			}
		}
	}
	if len(seen) != NumChannels {
		t.Fatalf("assigned %d distinct channels, want %d", len(seen), NumChannels)
	}
}

func TestAdaptiveVsDeadlockFree(t *testing.T) {
	if !Of(packet.Request, Adaptive).IsAdaptive() {
		t.Error("adaptive channel not adaptive")
	}
	if Of(packet.Request, VC0).IsAdaptive() || Of(packet.Request, VC1).IsAdaptive() {
		t.Error("deadlock-free channel claims adaptive")
	}
	if !Of(packet.Forward, VC1).IsDeadlockFree() {
		t.Error("VC1 not deadlock-free")
	}
}

func TestSpecialSingleChannel(t *testing.T) {
	ch := Of(packet.Special, Adaptive)
	if ch != NumChannels-1 {
		t.Errorf("special channel = %d, want %d", ch, NumChannels-1)
	}
	defer func() {
		if recover() == nil {
			t.Error("Of(Special, VC0) should panic")
		}
	}()
	Of(packet.Special, VC0)
}

func TestDefaultConfigTotals316(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Total(); got != 316 {
		t.Fatalf("default buffer total = %d packets, want 316 (paper §2.1)", got)
	}
	// The bulk must be in the adaptive channels.
	adaptive := 0
	for cl := packet.Class(0); cl < packet.Special; cl++ {
		adaptive += cfg.Adaptive[cl]
	}
	if adaptive*10 < cfg.Total()*9 {
		t.Errorf("adaptive share = %d of %d; paper says the bulk is adaptive", adaptive, cfg.Total())
	}
	if cfg.DeadlockPerClass < 1 || cfg.DeadlockPerClass > 2 {
		t.Errorf("deadlock-free buffers = %d, paper says one or two", cfg.DeadlockPerClass)
	}
}

func TestCapacityMatchesTotal(t *testing.T) {
	f := func(a, d, s uint8) bool {
		var cfg Config
		for cl := packet.Class(0); cl < packet.Special; cl++ {
			cfg.Adaptive[cl] = int(a%60) + 1 + int(cl)
		}
		cfg.DeadlockPerClass = int(d%3) + 1
		cfg.SpecialBufs = int(s%8) + 1
		sum := 0
		for ch := Channel(0); ch < NumChannels; ch++ {
			sum += cfg.Capacity(ch)
		}
		return sum == cfg.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCreditsReserveRelease(t *testing.T) {
	cfg := DefaultConfig()
	var cr Credits
	cr.Init(cfg)
	ch := Of(packet.Request, VC0)
	if !cr.Available(ch) {
		t.Fatal("fresh credits unavailable")
	}
	cr.Reserve(ch)
	if cr.Available(ch) {
		t.Fatal("single deadlock-free buffer should be exhausted after one reserve")
	}
	cr.Release(ch)
	if !cr.Available(ch) {
		t.Fatal("release did not restore credit")
	}
	cr.CheckBounds(cfg)
}

func TestCreditsReservePanicsWhenExhausted(t *testing.T) {
	var cr Credits
	cr.Init(uniformConfig(1))
	ch := Of(packet.Forward, VC1)
	cr.Reserve(ch)
	defer func() {
		if recover() == nil {
			t.Error("reserve on exhausted channel should panic")
		}
	}()
	cr.Reserve(ch)
}

func TestCheckBoundsCatchesDoubleRelease(t *testing.T) {
	cfg := DefaultConfig()
	var cr Credits
	cr.Init(cfg)
	ch := Of(packet.Request, Adaptive)
	cr.Release(ch) // double release: one more than capacity
	defer func() {
		if recover() == nil {
			t.Error("CheckBounds should panic on over-capacity credits")
		}
	}()
	cr.CheckBounds(cfg)
}

func TestCreditsConservation(t *testing.T) {
	cfg := DefaultConfig()
	var cr Credits
	cr.Init(cfg)
	ch := Of(packet.BlockResponse, Adaptive)
	f := func(ops []bool) bool {
		held := 0
		for _, reserve := range ops {
			if reserve && cr.Available(ch) {
				cr.Reserve(ch)
				held++
			} else if !reserve && held > 0 {
				cr.Release(ch)
				held--
			}
		}
		ok := cr.Free(ch) == cfg.Capacity(ch)-held
		for held > 0 {
			cr.Release(ch)
			held--
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// uniformConfig builds a Config with the same adaptive capacity for every
// class, for tests that just need small buffers.
func uniformConfig(n int) Config {
	var cfg Config
	for cl := packet.Class(0); cl < packet.Special; cl++ {
		cfg.Adaptive[cl] = n
	}
	cfg.DeadlockPerClass = 1
	cfg.SpecialBufs = 1
	return cfg
}
