// Package ports defines the Alpha 21364 router's port structure: eight
// input ports, seven output ports, the sixteen buffer read ports, and the
// crossbar connection matrix of the paper's Figure 5.
//
// Input ports: four 2D-torus ports (north, south, east, west), one cache
// port, two memory-controller ports, and one I/O port. Output ports: the
// four torus ports, two memory-controller ports, and one I/O port — inside
// the processor the memory-controller ports are also tied to the internal
// cache, so there is no separate cache output port (§2.1).
package ports

import (
	"fmt"

	"alpha21364/internal/topology"
)

// In identifies an input port.
type In uint8

const (
	InNorth In = iota
	InSouth
	InEast
	InWest
	InCache
	InMC0
	InMC1
	InIO
	NumIn
)

var inNames = [NumIn]string{"L-N", "L-S", "L-E", "L-W", "L-Cache", "L-MC0", "L-MC1", "L-I/O"}

func (p In) String() string {
	if p < NumIn {
		return inNames[p]
	}
	return fmt.Sprintf("In(%d)", uint8(p))
}

// IsNetwork reports whether the input port is an interprocessor port.
func (p In) IsNetwork() bool { return p <= InWest }

// Out identifies an output port.
type Out uint8

const (
	OutNorth Out = iota
	OutSouth
	OutEast
	OutWest
	OutMC0
	OutMC1
	OutIO
	NumOut
)

var outNames = [NumOut]string{"G-N", "G-S", "G-E", "G-W", "G-L0", "G-L1", "G-I/O"}

func (p Out) String() string {
	if p < NumOut {
		return outNames[p]
	}
	return fmt.Sprintf("Out(%d)", uint8(p))
}

// IsNetwork reports whether the output port drives a torus link.
func (p Out) IsNetwork() bool { return p <= OutWest }

// IsLocal reports whether the output port sinks into the processor.
func (p Out) IsLocal() bool { return !p.IsNetwork() }

// InFromDir returns the input port on which packets arrive from the
// neighbor in direction d: a packet sent south arrives on its receiver's
// north-side port.
func InFromDir(d topology.Dir) In {
	switch d {
	case topology.North:
		return InNorth
	case topology.South:
		return InSouth
	case topology.East:
		return InEast
	default:
		return InWest
	}
}

// OutForDir returns the output port that drives the link toward direction d.
func OutForDir(d topology.Dir) Out {
	switch d {
	case topology.North:
		return OutNorth
	case topology.South:
		return OutSouth
	case topology.East:
		return OutEast
	default:
		return OutWest
	}
}

// Dir returns the torus direction of a network output port.
func (p Out) Dir() topology.Dir {
	if !p.IsNetwork() {
		panic(fmt.Sprintf("ports: %v is not a network port", p))
	}
	return topology.Dir(p)
}

// reverseOut returns the output port a packet arriving on input p must not
// use (a 180-degree turn never lies on a minimal path), or NumOut if the
// input is local.
func reverseOut(p In) Out {
	if !p.IsNetwork() {
		return NumOut
	}
	// A packet arriving on the north input came from the north neighbor and
	// is heading south; exiting north again would reverse it.
	return Out(p)
}

// NumRows is the number of read-port (input-port) arbiters: each of the 8
// input buffers has two read ports.
const NumRows = 16

// Row converts an input port and read port (0 or 1) to a connection-matrix
// row, matching the paper's Figure 5 layout ("L-X rpY").
func Row(in In, readPort int) int { return int(in)*2 + readPort }

// RowIn returns the input port of a matrix row.
func RowIn(row int) In { return In(row / 2) }

// RowReadPort returns which of the input port's two read ports a row is.
func RowReadPort(row int) int { return row % 2 }

// OutMask is a bitmask over output ports.
type OutMask uint8

// Has reports whether the mask contains out.
func (m OutMask) Has(o Out) bool { return m&(1<<uint(o)) != 0 }

// With returns the mask including out.
func (m OutMask) With(o Out) OutMask { return m | 1<<uint(o) }

// Count returns the number of outputs in the mask.
func (m OutMask) Count() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// AllOuts is the mask of all seven output ports.
const AllOuts OutMask = 1<<NumOut - 1

// NetworkOuts is the mask of the four torus output ports.
const NetworkOuts OutMask = 1<<OutNorth | 1<<OutSouth | 1<<OutEast | 1<<OutWest

// LocalOuts is the mask of the processor-facing output ports.
const LocalOuts OutMask = 1<<OutMC0 | 1<<OutMC1 | 1<<OutIO

// ConnectionMatrix records which output ports each read-port arbiter can
// reach through the crossbar (unshaded cells of the paper's Figure 5).
type ConnectionMatrix [NumRows]OutMask

// LegalOuts returns the outputs an input port may use at all (the union of
// its two read ports' connections).
func (cm ConnectionMatrix) LegalOuts(in In) OutMask {
	return cm[Row(in, 0)] | cm[Row(in, 1)]
}

// Cells returns the number of connected (unshaded) cells.
func (cm ConnectionMatrix) Cells() int {
	n := 0
	for _, m := range cm {
		n += m.Count()
	}
	return n
}

// DefaultConnectionMatrix reconstructs Figure 5. The published figure
// shades cells without enumerating them (54 connected cells of 112); the
// paper's structural rules give us:
//
//   - a network input never connects to its own direction's output (a
//     180-degree turn is never minimal),
//   - the I/O input never connects to the I/O output,
//   - local inputs (cache, MC0, MC1) connect to every output,
//   - each input port's legal outputs are split across its two read ports
//     (the read-port pairs exist to widen the arbiter's choice, not to
//     duplicate it), which we do alternately.
//
// This reconstruction yields 51 connected cells; the exact published
// pattern is not recoverable from the paper, and the matrix is a plain
// value so tests or users can substitute another.
func DefaultConnectionMatrix() ConnectionMatrix {
	var cm ConnectionMatrix
	for in := In(0); in < NumIn; in++ {
		rev := reverseOut(in)
		idx := 0
		for o := Out(0); o < NumOut; o++ {
			if o == rev {
				continue
			}
			if in == InIO && o == OutIO {
				continue
			}
			cm[Row(in, idx%2)] = cm[Row(in, idx%2)].With(o)
			idx++
		}
	}
	return cm
}

// FullConnectionMatrix connects every read port to every legal output of
// its input port (no read-port split). Used by tests and ablations.
func FullConnectionMatrix() ConnectionMatrix {
	var cm ConnectionMatrix
	for in := In(0); in < NumIn; in++ {
		rev := reverseOut(in)
		var mask OutMask
		for o := Out(0); o < NumOut; o++ {
			if o == rev {
				continue
			}
			if in == InIO && o == OutIO {
				continue
			}
			mask = mask.With(o)
		}
		cm[Row(in, 0)] = mask
		cm[Row(in, 1)] = mask
	}
	return cm
}
