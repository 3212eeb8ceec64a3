package vc

// ring.go provides the fixed-capacity index ring buffer backing the
// router's per-channel packet queues. Queues hold 16-bit handles into a
// packet-state slab rather than pointers, so the slab can grow (its
// backing block reallocates) without invalidating queue contents, and a
// queue scan walks a dense array instead of chasing pointers.
//
// A Ring is only a header: four 16-bit words naming its slice of a
// handle block that its owner holds and passes to every operation that
// reads or writes handles. The router keeps one block for all 152 of its
// rings, so the headers hold no pointer for the collector to scan. A
// block addresses at most MaxRingBlock handles, and an owner that holds
// at most one entry per handle it hands out (the router buffers at most
// one packet per block entry) never needs a handle wider than 16 bits.
//
// Operations preserve FIFO (arrival) order, including mid-queue removal
// — the 21364 dispatches the oldest eligible packet, which need not be
// the head. Removal shifts whichever side of the ring is shorter.

import (
	"fmt"
	"math"
)

// MaxRingBlock is the longest handle block a Ring can address: its
// offset and capacity are 16-bit words.
const MaxRingBlock = math.MaxUint16

// Ring is a fixed-capacity FIFO of 16-bit handles with ordered indexing
// and order-preserving mid-queue removal, stored in block[off:off+cap]
// of its owner's handle block. The zero Ring has capacity 0; place it
// in a block with Init.
type Ring struct {
	off, cap, head, n uint16
}

// Init places the ring at block[off:off+capacity], dropping any
// contents. The ring never touches the block outside that span, so many
// rings can share one block, each owning a slice of it. It panics unless
// 0 <= off, 0 <= capacity and off+capacity <= MaxRingBlock; the panic
// message is constant so that Init inlines.
func (r *Ring) Init(off, capacity int) {
	if off < 0 || capacity < 0 || off+capacity > MaxRingBlock {
		panic("vc: ring does not fit a MaxRingBlock-handle block")
	}
	*r = Ring{off: uint16(off), cap: uint16(capacity)}
}

// Len returns the number of queued handles.
func (r *Ring) Len() int { return int(r.n) }

// Cap returns the ring's fixed capacity.
func (r *Ring) Cap() int { return int(r.cap) }

// Full reports whether the ring is at capacity.
func (r *Ring) Full() bool { return r.n == r.cap }

// slot returns the block index of the i-th oldest handle (i <= Len).
func (r *Ring) slot(i int) int {
	s := int(r.head) + i
	if s >= int(r.cap) {
		s -= int(r.cap)
	}
	return int(r.off) + s
}

// At returns the i-th oldest handle (0 is the front). Its panic message
// is constant so that the arbitration scans, which call it per visited
// packet, can inline it.
func (r *Ring) At(block []uint16, i int) uint16 {
	if uint(i) >= uint(r.n) {
		panic("vc: ring index out of range")
	}
	return block[r.slot(i)]
}

// Push appends a handle at the tail; it panics when full (the router's
// credit accounting must prevent that).
func (r *Ring) Push(block []uint16, v uint16) {
	if r.n == r.cap {
		panic("vc: push on full ring — credit accounting broken")
	}
	block[r.slot(int(r.n))] = v
	r.n++
}

// RemoveAt deletes the i-th oldest handle, preserving order. It shifts
// the shorter side of the ring.
func (r *Ring) RemoveAt(block []uint16, i int) {
	n := int(r.n)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("vc: ring remove %d out of range (len %d)", i, n))
	}
	if i < n-1-i {
		// Shift the front forward over the hole.
		for j := i; j > 0; j-- {
			block[r.slot(j)] = block[r.slot(j-1)]
		}
		r.head = uint16(r.slot(1) - int(r.off))
	} else {
		// Shift the tail back over the hole.
		for j := i; j < n-1; j++ {
			block[r.slot(j)] = block[r.slot(j+1)]
		}
	}
	r.n--
}

// Remove deletes the first occurrence of v, reporting whether it was
// present.
func (r *Ring) Remove(block []uint16, v uint16) bool {
	for i := 0; i < int(r.n); i++ {
		if block[r.slot(i)] == v {
			r.RemoveAt(block, i)
			return true
		}
	}
	return false
}
