package packet

// arena.go pools packets so the steady-state injection path allocates
// nothing: a packet is drawn from the arena at creation and returned to
// it when its delivery is fully processed. Storage grows in fixed-size
// chunks, never reallocating, so *Packet pointers handed out by New stay
// valid for the packet's whole lifetime. Every slot carries a generation
// counter, which a packet records when drawn, making double releases
// detectable instead of silently corrupting a recycled packet.

import (
	"fmt"

	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// arenaChunkSize is the number of packet slots added per growth step.
const arenaChunkSize = 256

// Arena is a pool of packets. It is not safe for concurrent use; each
// simulation owns its own arena, matching the engine's single-threaded
// dispatch.
type Arena struct {
	chunks [][]Packet
	// gens[i] is the current generation of slot i: odd while the slot is
	// live, even while it is free. A packet is live only while the gen
	// it recorded equals its slot's.
	gens []uint32
	free []uint32
	live int
}

// NewArena returns an empty arena; it grows on demand in fixed chunks.
func NewArena() *Arena { return &Arena{} }

// Live returns the number of packets currently checked out.
func (a *Arena) Live() int { return a.live }

func (a *Arena) grow() {
	base := uint32(len(a.gens))
	a.chunks = append(a.chunks, make([]Packet, arenaChunkSize))
	for i := 0; i < arenaChunkSize; i++ {
		a.gens = append(a.gens, 0)
		a.free = append(a.free, base+uint32(i))
	}
}

func (a *Arena) slot(idx uint32) *Packet {
	return &a.chunks[idx/arenaChunkSize][idx%arenaChunkSize]
}

// New checks a packet out of the arena, initialized exactly as
// packet.New would build it. The returned pointer is stable until
// Release.
func (a *Arena) New(id uint64, c Class, src, dst topology.Node, created sim.Ticks) *Packet {
	if len(a.free) == 0 {
		a.grow()
	}
	idx := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.gens[idx]++ // even -> odd: live
	p := a.slot(idx)
	*p = Packet{
		ID:      id,
		Class:   c,
		Flits:   c.Flits(),
		Src:     src,
		Dst:     dst,
		Created: created,
		arena:   a,
		slot:    idx,
		gen:     a.gens[idx],
	}
	a.live++
	return p
}

// Owns reports whether p was drawn from this arena and is still live.
func (a *Arena) Owns(p *Packet) bool {
	return p.arena == a && a.gens[p.slot] == p.gen
}

// Release returns a packet to the arena. It panics on double release or
// on a packet from a different (or no) arena — both indicate lifecycle
// bugs that would otherwise corrupt a recycled packet.
func (a *Arena) Release(p *Packet) {
	if p.arena != a {
		panic(fmt.Sprintf("packet: releasing %v to an arena it does not belong to", p))
	}
	idx := p.slot
	if a.gens[idx] != p.gen {
		panic(fmt.Sprintf("packet: double release of %v (slot %d gen %d, packet gen %d)",
			p, idx, a.gens[idx], p.gen))
	}
	a.gens[idx]++ // odd -> even: free
	p.arena = nil
	p.slot, p.gen = 0, 0
	a.free = append(a.free, idx)
	a.live--
}
