// Package vc models the Alpha 21364's virtual channels and the
// packet-granularity buffer accounting of its virtual cut-through router.
//
// The 21364 has 19 virtual channels per port: each of the six non-special
// coherence classes has a group of three channels — one adaptive channel
// and two deadlock-free channels (VC0, VC1) that follow strict
// dimension-order routing — and the special class has a single channel.
// The adaptive channels hold the bulk of the 316 packet buffers per input
// port; VC0/VC1 typically have one or two buffers each (§2.1).
//
// The package names the channels (Channel), sizes their buffers (Config)
// and counts their free space (Credits); it holds no packet. The router
// keeps each (input port, channel) buffer as a queue linked through its
// own packet records (internal/router, state.go), and the credit pools
// keep every queue within its Config capacity.
package vc

import (
	"fmt"

	"alpha21364/internal/packet"
)

// Sub distinguishes the three channels inside a class group.
type Sub uint8

const (
	Adaptive Sub = iota
	VC0
	VC1
)

func (s Sub) String() string {
	switch s {
	case Adaptive:
		return "adaptive"
	case VC0:
		return "vc0"
	case VC1:
		return "vc1"
	}
	return fmt.Sprintf("Sub(%d)", uint8(s))
}

// Channel identifies one of the 19 virtual channels.
type Channel uint8

// NumChannels is the total number of virtual channels per port: six
// three-channel class groups plus the single special channel.
const NumChannels = 6*3 + 1

// Of returns the channel for a class and sub-channel. The special class has
// only one channel; its sub argument must be Adaptive.
func Of(c packet.Class, s Sub) Channel {
	if c >= packet.NumClasses {
		panic(fmt.Sprintf("vc: invalid class %d", c))
	}
	if c == packet.Special {
		if s != Adaptive {
			panic("vc: special class has a single channel")
		}
		return NumChannels - 1
	}
	return Channel(uint8(c)*3 + uint8(s))
}

// Class returns the coherence class the channel belongs to.
func (ch Channel) Class() packet.Class {
	if ch >= NumChannels {
		panic(fmt.Sprintf("vc: invalid channel %d", ch))
	}
	if ch == NumChannels-1 {
		return packet.Special
	}
	return packet.Class(ch / 3)
}

// Sub returns which member of its class group the channel is.
func (ch Channel) Sub() Sub {
	if ch >= NumChannels {
		panic(fmt.Sprintf("vc: invalid channel %d", ch))
	}
	if ch == NumChannels-1 {
		return Adaptive
	}
	return Sub(ch % 3)
}

// IsAdaptive reports whether the channel routes adaptively.
func (ch Channel) IsAdaptive() bool { return ch.Sub() == Adaptive }

// IsDeadlockFree reports whether the channel is VC0 or VC1 (strict
// dimension-order routing).
func (ch Channel) IsDeadlockFree() bool { return !ch.IsAdaptive() }

func (ch Channel) String() string {
	return fmt.Sprintf("%v/%v", ch.Class(), ch.Sub())
}

// Config sets the per-input-port buffer capacities, counted in packets as
// in the 21364 (virtual cut-through allocates whole-packet buffers).
//
// The adaptive capacities are per class because packet sizes differ
// enormously (3-flit requests versus 19-flit block responses): the paper's
// "316 packets per input port" is only physically plausible if most of
// those entries hold short packets, so the default gives the short-packet
// classes deep buffers and the cache-block classes shallow ones while
// keeping the total at exactly 316 packets per input port.
type Config struct {
	// Adaptive is the packet capacity of each non-special class's adaptive
	// channel, indexed by packet.Class (the Special entry is ignored; see
	// SpecialBufs).
	Adaptive [packet.NumClasses]int
	// DeadlockPerClass is the packet capacity of each VC0 and each VC1
	// (the paper: "typically one or two buffers").
	DeadlockPerClass int
	// SpecialBufs is the packet capacity of the special channel.
	SpecialBufs int
}

// DefaultConfig reproduces the paper's 316 packets per input port with the
// bulk in the adaptive channels (§2.1): 300 adaptive entries weighted
// toward the 3-flit classes, 12 deadlock-free singles, 4 special.
func DefaultConfig() Config {
	return Config{
		Adaptive: [packet.NumClasses]int{
			packet.Request:          96,
			packet.Forward:          96,
			packet.BlockResponse:    8,
			packet.NonBlockResponse: 80,
			packet.WriteIO:          8,
			packet.ReadIO:           12,
		},
		DeadlockPerClass: 1,
		SpecialBufs:      4,
	}
}

// Capacity returns the packet capacity of a channel.
func (c Config) Capacity(ch Channel) int {
	if ch == NumChannels-1 {
		return c.SpecialBufs
	}
	if ch.IsAdaptive() {
		return c.Adaptive[ch.Class()]
	}
	return c.DeadlockPerClass
}

// Total returns the summed packet capacity of all 19 channels.
func (c Config) Total() int {
	t := 12*c.DeadlockPerClass + c.SpecialBufs
	for cl := packet.Class(0); cl < packet.Special; cl++ {
		t += c.Adaptive[cl]
	}
	return t
}

// Credits tracks free downstream buffer space per channel, in packets. It
// is held by the sender side of a link (an upstream output port or a local
// injection port), mirroring credit-based flow control: a credit is
// consumed when a packet is dispatched toward the buffer and returned when
// the packet later leaves that buffer.
type Credits struct {
	free [NumChannels]int
}

// Init sets every channel's free count to its capacity, caps[ch] (a
// Config's Capacity of each channel, which the owner evaluates once for
// all its pools). The zero Credits has no free buffer; a pool lives by
// value in its owner and is initialized in place.
func (cr *Credits) Init(caps *[NumChannels]int) { cr.free = *caps }

// Available reports whether at least one packet buffer is free on ch.
func (cr *Credits) Available(ch Channel) bool { return cr.free[ch] > 0 }

// Free returns the number of free packet buffers on ch.
func (cr *Credits) Free(ch Channel) int { return cr.free[ch] }

// Reserve consumes one credit on ch; it panics if none are available
// (callers must check Available first — over-reserving would correspond to
// dropping a packet, which the 21364 never does).
func (cr *Credits) Reserve(ch Channel) {
	if cr.free[ch] <= 0 {
		panic(fmt.Sprintf("vc: reserve on exhausted channel %v", ch))
	}
	cr.free[ch]--
}

// Release returns one credit on ch.
func (cr *Credits) Release(ch Channel) { cr.free[ch]++ }
