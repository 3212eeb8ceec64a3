package vc

import (
	"math/rand"
	"testing"
	"unsafe"
)

func ringContents(r *Ring, block []uint16) []uint16 {
	out := make([]uint16, 0, r.Len())
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.At(block, i))
	}
	return out
}

func TestRingFIFOOrder(t *testing.T) {
	block := make([]uint16, 4)
	var r Ring
	r.Init(0, 4)
	for i := uint16(1); i <= 4; i++ {
		r.Push(block, i)
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	r.RemoveAt(block, 0)
	r.Push(block, 5)
	want := []uint16{2, 3, 4, 5}
	got := ringContents(&r, block)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	}
}

func TestRingMidRemovalPreservesOrder(t *testing.T) {
	block := make([]uint16, 8)
	var r Ring
	r.Init(0, 8)
	// Wrap the ring first so removal crosses the buffer seam.
	for i := uint16(0); i < 6; i++ {
		r.Push(block, i)
	}
	r.RemoveAt(block, 0)
	r.RemoveAt(block, 0)
	for i := uint16(6); i < 10; i++ {
		r.Push(block, i)
	}
	// Contents: 2 3 4 5 6 7 8 9, physically wrapped.
	r.RemoveAt(block, 3) // drop 5
	want := []uint16{2, 3, 4, 6, 7, 8, 9}
	got := ringContents(&r, block)
	if len(got) != len(want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	}
}

func TestRingRemoveValue(t *testing.T) {
	block := make([]uint16, 4)
	var r Ring
	r.Init(0, 4)
	r.Push(block, 10)
	r.Push(block, 20)
	r.Push(block, 30)
	if !r.Remove(block, 20) {
		t.Fatal("Remove(20) = false")
	}
	if r.Remove(block, 99) {
		t.Fatal("Remove(99) = true")
	}
	got := ringContents(&r, block)
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("contents = %v, want [10 30]", got)
	}
}

func TestRingPushFullPanics(t *testing.T) {
	block := make([]uint16, 1)
	var r Ring
	r.Init(0, 1)
	r.Push(block, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("push on full ring did not panic")
		}
	}()
	r.Push(block, 2)
}

// TestRingHeaderHoldsNoPointer pins the ring header at four 16-bit
// words: a router holds 152 of them, and none is a pointer the collector
// must scan.
func TestRingHeaderHoldsNoPointer(t *testing.T) {
	if size := unsafe.Sizeof(Ring{}); size != 8 {
		t.Fatalf("Ring is %d bytes, want 8", size)
	}
}

// TestRingInitRejectsSpansBeyondOffsets checks that Init refuses a span
// its 16-bit words cannot address, and accepts the last one they can.
func TestRingInitRejectsSpansBeyondOffsets(t *testing.T) {
	for _, c := range []struct{ off, capacity int }{
		{-1, 4}, {0, -1}, {MaxRingBlock, 1}, {MaxRingBlock - 3, 4}, {0, MaxRingBlock + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Init(%d, %d) did not panic", c.off, c.capacity)
				}
			}()
			var r Ring
			r.Init(c.off, c.capacity)
		}()
	}
	block := make([]uint16, MaxRingBlock)
	var r Ring
	r.Init(MaxRingBlock-4, 4)
	for v := uint16(0); v < 6; v++ {
		r.Push(block, v)
		if v >= 3 {
			r.RemoveAt(block, 0)
		}
	}
	if got := ringContents(&r, block); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("ring at the end of the block holds %v, want [3 4 5]", got)
	}
}

// TestRingDifferentialSlice mirrors the ring against a plain slice over
// random push/remove sequences, across wraps. The ring lives in the
// middle of a larger block, as the router places its rings in one
// block, and the words around it must never change.
func TestRingDifferentialSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	block := make([]uint16, 4+16+4)
	for i := range block {
		block[i] = 0xdead
	}
	var r Ring
	r.Init(4, 16)
	var ref []uint16
	next := uint16(0)
	for step := 0; step < 20000; step++ {
		if r.Len() != len(ref) {
			t.Fatalf("step %d: len %d vs ref %d", step, r.Len(), len(ref))
		}
		if len(ref) < 16 && (len(ref) == 0 || rng.Intn(2) == 0) {
			r.Push(block, next)
			ref = append(ref, next)
			next++
		} else {
			i := rng.Intn(len(ref))
			r.RemoveAt(block, i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		for i, v := range ref {
			if r.At(block, i) != v {
				t.Fatalf("step %d: ring %v, ref %v", step, ringContents(&r, block), ref)
			}
		}
	}
	for _, i := range []int{0, 1, 2, 3, 20, 21, 22, 23} {
		if block[i] != 0xdead {
			t.Fatalf("ring wrote %d outside its storage, at block[%d]", block[i], i)
		}
	}
}
