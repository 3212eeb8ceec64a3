package vc

import (
	"math/rand"
	"testing"
)

func ringContents(r *Ring) []int32 {
	out := make([]int32, 0, r.Len())
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.At(i))
	}
	return out
}

func TestRingFIFOOrder(t *testing.T) {
	var r Ring
	r.Init(make([]int32, 4))
	for i := int32(1); i <= 4; i++ {
		r.Push(i)
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	r.RemoveAt(0)
	r.Push(5)
	want := []int32{2, 3, 4, 5}
	got := ringContents(&r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	}
}

func TestRingMidRemovalPreservesOrder(t *testing.T) {
	var r Ring
	r.Init(make([]int32, 8))
	// Wrap the ring first so removal crosses the buffer seam.
	for i := int32(0); i < 6; i++ {
		r.Push(i)
	}
	r.RemoveAt(0)
	r.RemoveAt(0)
	for i := int32(6); i < 10; i++ {
		r.Push(i)
	}
	// Contents: 2 3 4 5 6 7 8 9, physically wrapped.
	r.RemoveAt(3) // drop 5
	want := []int32{2, 3, 4, 6, 7, 8, 9}
	got := ringContents(&r)
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
	var r Ring
	r.Init(make([]int32, 4))
	r.Push(10)
	r.Push(20)
	r.Push(30)
	if !r.Remove(20) {
		t.Fatal("Remove(20) = false")
	}
	if r.Remove(99) {
		t.Fatal("Remove(99) = true")
	}
	got := ringContents(&r)
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("contents = %v, want [10 30]", got)
	}
}

func TestRingPushFullPanics(t *testing.T) {
	var r Ring
	r.Init(make([]int32, 1))
	r.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("push on full ring did not panic")
		}
	}()
	r.Push(2)
}

// TestRingDifferentialSlice mirrors the ring against a plain slice over
// random push/remove sequences, across wraps. The ring's storage is the
// middle of a larger block, as the router carves its rings out of one
// block, and the words around it must never change.
func TestRingDifferentialSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	block := make([]int32, 4+16+4)
	for i := range block {
		block[i] = -7
	}
	var r Ring
	r.Init(block[4:20:20])
	var ref []int32
	next := int32(0)
	for step := 0; step < 20000; step++ {
		if r.Len() != len(ref) {
			t.Fatalf("step %d: len %d vs ref %d", step, r.Len(), len(ref))
		}
		if len(ref) < 16 && (len(ref) == 0 || rng.Intn(2) == 0) {
			r.Push(next)
			ref = append(ref, next)
			next++
		} else {
			i := rng.Intn(len(ref))
			r.RemoveAt(i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		for i, v := range ref {
			if r.At(i) != v {
				t.Fatalf("step %d: ring %v, ref %v", step, ringContents(&r), ref)
			}
		}
	}
	for _, i := range []int{0, 1, 2, 3, 20, 21, 22, 23} {
		if block[i] != -7 {
			t.Fatalf("ring wrote %d outside its storage, at block[%d]", block[i], i)
		}
	}
}
