package core

import (
	"fmt"
	"strings"

	"alpha21364/internal/sim"
)

// Kind names an arbitration algorithm configuration used in the paper's
// evaluation.
type Kind uint8

const (
	KindMCM Kind = iota
	KindPIM
	KindPIM1
	KindWFABase
	KindWFARotary
	KindSPAABase
	KindSPAARotary
	KindOPF
	NumKinds
)

var kindNames = [NumKinds]string{
	"MCM", "PIM", "PIM1", "WFA-base", "WFA-rotary", "SPAA-base", "SPAA-rotary", "OPF",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindNames returns every algorithm name in declaration order.
func KindNames() []string {
	return append([]string(nil), kindNames[:]...)
}

// ParseKind resolves an algorithm name (as printed by String), case-
// insensitively; "WFA" and "SPAA" resolve to the base variants.
func ParseKind(name string) (Kind, error) {
	key := strings.TrimSpace(name)
	switch {
	case strings.EqualFold(key, "WFA"):
		return KindWFABase, nil
	case strings.EqualFold(key, "SPAA"):
		return KindSPAABase, nil
	}
	for k := Kind(0); k < NumKinds; k++ {
		if strings.EqualFold(kindNames[k], key) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown arbitration algorithm %q (valid: %s)",
		name, strings.Join(kindNames[:], ", "))
}

// PIMFullIterations is the iteration count for full PIM on the 21364: PIM
// usually converges within log2(N) iterations and the router has N = 16
// input port arbiters (paper §3.1).
const PIMFullIterations = 4

// New constructs the arbiter for a kind. The RNG is used by PIM's random
// grant/accept steps; deterministic algorithms ignore it.
func New(k Kind, rng *sim.RNG) Arbiter {
	switch k {
	case KindMCM:
		return NewMCM()
	case KindPIM:
		return NewPIM(PIMFullIterations, rng)
	case KindPIM1:
		return NewPIM1(rng)
	case KindWFABase:
		return NewWFA()
	case KindWFARotary:
		return NewWFARotary()
	case KindSPAABase:
		return NewSPAA()
	case KindSPAARotary:
		return NewSPAARotary()
	case KindOPF:
		return NewOPF()
	}
	panic(fmt.Sprintf("core: invalid kind %d", k))
}

// Timing parameters (paper §3.1-3.3): arbitration latency in router cycles
// from the LA (input arbitration) stage through the GA (output arbitration)
// stage, and the initiation interval between successive input-port
// arbitration starts.
//
//   - SPAA: 3 cycles (LA, RE, GA), new arbitration every cycle.
//   - PIM1 and WFA: 4 cycles, of which the fourth (wire delay to the output
//     ports) is pipelined, and a new arbitration only every 3 cycles.
type Timing struct {
	ArbCycles    int // LA -> GA latency in router cycles
	InitInterval int // cycles between successive arbitration starts
}

// TimingOf returns the paper's timing for a kind (standalone-only
// algorithms get SPAA-like placeholders; the standalone model runs every
// algorithm in one cycle and ignores this).
func TimingOf(k Kind) Timing {
	switch k {
	case KindPIM, KindPIM1, KindWFABase, KindWFARotary:
		return Timing{ArbCycles: 4, InitInterval: 3}
	default:
		return Timing{ArbCycles: 3, InitInterval: 1}
	}
}
