// Package packet defines the seven coherence packet classes of the Alpha
// 21364 network, their flit sizes, and the network packet structure shared
// by the standalone and timing performance models.
//
// Flit sizes follow the paper (§2.1): requests and forwards are 3 flits,
// block responses 18-19 flits (we model 19, the size that carries a 64-byte
// cache block), non-block responses 2-3 flits (we model 3), write I/O 19,
// read I/O 3, and specials a single flit. Each flit is 39 bits (32 data +
// 7 ECC).
package packet

import (
	"fmt"

	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// Class is a coherence packet class. The 21364 assigns each class its own
// ordered virtual channel group to break protocol deadlocks.
type Class uint8

const (
	Request Class = iota
	Forward
	BlockResponse
	NonBlockResponse
	WriteIO
	ReadIO
	Special
	NumClasses
)

var classNames = [NumClasses]string{
	"request", "forward", "block-response", "non-block-response",
	"write-io", "read-io", "special",
}

var classFlits = [NumClasses]int{3, 3, 19, 3, 19, 3, 1}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Flits returns the packet length in flits for the class.
func (c Class) Flits() int {
	if c >= NumClasses {
		panic(fmt.Sprintf("packet: invalid class %d", c))
	}
	return classFlits[c]
}

// IsIO reports whether the class is an I/O class; I/O packets may only use
// the deadlock-free channels (the 21364's I/O ordering rules).
func (c Class) IsIO() bool { return c == WriteIO || c == ReadIO }

// FlitBits is the width of one flit on the wire: 32 data bits plus 7 ECC.
const FlitBits = 39

// Packet is a network packet. Packets are allocated once at injection and
// flow through routers by reference; routers attach their own per-hop state
// externally.
type Packet struct {
	ID      uint64
	Class   Class
	Flits   int
	Src     topology.Node
	Dst     topology.Node
	Created sim.Ticks // when the packet was handed to its source local port
	TxnID   uint64    // owning coherence transaction, 0 if none
	Hops    int       // router-to-router hops taken so far

	// arena bookkeeping, set only for packets drawn from an Arena: the
	// slot the packet occupies and the slot's generation when drawn.
	arena *Arena
	slot  uint32
	gen   uint32
}

// New returns a packet of the given class with the class's flit count.
func New(id uint64, c Class, src, dst topology.Node, created sim.Ticks) *Packet {
	return &Packet{
		ID:      id,
		Class:   c,
		Flits:   c.Flits(),
		Src:     src,
		Dst:     dst,
		Created: created,
	}
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d(%v %d->%d %df)", p.ID, p.Class, p.Src, p.Dst, p.Flits)
}
