package packet

import "testing"

func TestArenaNewMatchesPacketNew(t *testing.T) {
	a := NewArena()
	got := a.New(7, BlockResponse, 3, 12, 450)
	want := New(7, BlockResponse, 3, 12, 450)
	if got.ID != want.ID || got.Class != want.Class || got.Flits != want.Flits ||
		got.Src != want.Src || got.Dst != want.Dst || got.Created != want.Created {
		t.Fatalf("arena packet %+v differs from packet.New %+v", got, want)
	}
}

func TestArenaReuseAndGenerations(t *testing.T) {
	a := NewArena()
	p1 := a.New(1, Request, 0, 1, 0)
	slot := p1.slot
	if a.Live() != 1 || p1.gen != 1 {
		t.Fatalf("live = %d, gen = %d, want 1 and 1", a.Live(), p1.gen)
	}
	a.Release(p1)
	if a.Live() != 0 || a.gens[slot] != 2 {
		t.Fatalf("live = %d, slot gen = %d after release, want 0 and 2", a.Live(), a.gens[slot])
	}
	// The slot is recycled under the next generation.
	p2 := a.New(2, Forward, 2, 3, 10)
	if p2 != p1 || p2.slot != slot || p2.gen != 3 || !a.Owns(p2) {
		t.Fatalf("recycled packet %v: slot %d gen %d, owned %v; want slot %d at gen 3, owned",
			p2, p2.slot, p2.gen, a.Owns(p2), slot)
	}
}

func TestArenaPointerStabilityAcrossGrowth(t *testing.T) {
	a := NewArena()
	var ptrs []*Packet
	for i := 0; i < arenaChunkSize*3+5; i++ {
		ptrs = append(ptrs, a.New(uint64(i+1), Request, 0, 1, 0))
	}
	for i, p := range ptrs {
		if p.ID != uint64(i+1) {
			t.Fatalf("packet %d corrupted after growth: id %d", i, p.ID)
		}
	}
	if len(a.gens) < arenaChunkSize*4 {
		t.Fatalf("cap = %d, want at least %d", len(a.gens), arenaChunkSize*4)
	}
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	a := NewArena()
	p := a.New(1, Request, 0, 1, 0)
	a.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	a.Release(p)
}

func TestArenaForeignPacketPanics(t *testing.T) {
	a := NewArena()
	p := New(1, Request, 0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a non-arena packet did not panic")
		}
	}()
	a.Release(p)
}

func TestArenaOwns(t *testing.T) {
	a, b := NewArena(), NewArena()
	p := a.New(1, Request, 0, 1, 0)
	if !a.Owns(p) {
		t.Fatal("arena does not own its packet")
	}
	if b.Owns(p) {
		t.Fatal("foreign arena claims ownership")
	}
	if a.Owns(New(2, Request, 0, 1, 0)) {
		t.Fatal("arena claims plain packet")
	}
	a.Release(p)
	if a.Owns(p) {
		t.Fatal("arena owns a released packet")
	}
}

func TestArenaAllocFree(t *testing.T) {
	a := NewArena()
	// Warm the arena past its high-water mark.
	var held []*Packet
	for i := 0; i < 64; i++ {
		held = append(held, a.New(uint64(i), Request, 0, 1, 0))
	}
	for _, p := range held {
		a.Release(p)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p := a.New(99, BlockResponse, 1, 2, 5)
		a.Release(p)
	})
	if allocs != 0 {
		t.Fatalf("steady-state New/Release allocates %.1f/op, want 0", allocs)
	}
}
