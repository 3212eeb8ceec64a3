package vc

// ring.go provides the fixed-capacity index ring buffer backing the
// router's per-channel packet queues. Queues hold int32 handles into a
// packet-state slab rather than pointers, so the slab can grow (its
// backing arrays reallocate) without invalidating queue contents, and a
// queue scan walks a dense int32 array instead of chasing pointers.
//
// Operations preserve FIFO (arrival) order, including mid-queue removal
// — the 21364 dispatches the oldest eligible packet, which need not be
// the head. Removal shifts whichever side of the ring is shorter.

import "fmt"

// Ring is a fixed-capacity FIFO of int32 handles with ordered indexing
// and order-preserving mid-queue removal. The zero Ring has capacity 0;
// give it storage with Init.
type Ring struct {
	buf  []int32
	head int
	n    int
}

// Init makes buf the ring's storage, dropping any contents: the ring's
// capacity is len(buf). The ring never writes outside buf, so many rings
// can share one block, each owning a slice of it.
func (r *Ring) Init(buf []int32) {
	r.buf = buf
	r.head, r.n = 0, 0
}

// Len returns the number of queued handles.
func (r *Ring) Len() int { return r.n }

// Cap returns the ring's fixed capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Full reports whether the ring is at capacity.
func (r *Ring) Full() bool { return r.n == len(r.buf) }

func (r *Ring) slot(i int) int {
	s := r.head + i
	if s >= len(r.buf) {
		s -= len(r.buf)
	}
	return s
}

// At returns the i-th oldest handle (0 is the front). Its panic message
// is constant so that the arbitration scans, which call it per visited
// packet, can inline it.
func (r *Ring) At(i int) int32 {
	if uint(i) >= uint(r.n) {
		panic("vc: ring index out of range")
	}
	return r.buf[r.slot(i)]
}

// Push appends a handle at the tail; it panics when full (the router's
// credit accounting must prevent that).
func (r *Ring) Push(v int32) {
	if r.n == len(r.buf) {
		panic("vc: push on full ring — credit accounting broken")
	}
	r.buf[r.slot(r.n)] = v
	r.n++
}

// RemoveAt deletes the i-th oldest handle, preserving order. It shifts
// the shorter side of the ring.
func (r *Ring) RemoveAt(i int) {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("vc: ring remove %d out of range (len %d)", i, r.n))
	}
	if i < r.n-1-i {
		// Shift the front forward over the hole.
		for j := i; j > 0; j-- {
			r.buf[r.slot(j)] = r.buf[r.slot(j-1)]
		}
		r.head = r.slot(1)
	} else {
		// Shift the tail back over the hole.
		for j := i; j < r.n-1; j++ {
			r.buf[r.slot(j)] = r.buf[r.slot(j+1)]
		}
	}
	r.n--
}

// Remove deletes the first occurrence of v, reporting whether it was
// present.
func (r *Ring) Remove(v int32) bool {
	for i := 0; i < r.n; i++ {
		if r.buf[r.slot(i)] == v {
			r.RemoveAt(i)
			return true
		}
	}
	return false
}
