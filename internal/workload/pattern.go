// Package workload decomposes a synthetic workload into three orthogonal,
// independently pluggable pieces:
//
//   - a Pattern draws request destinations (the spatial axis): the paper's
//     random (uniform), bit-reversal, and perfect-shuffle patterns plus
//     transpose, tornado, nearest-neighbor, and a weighted hotspot;
//   - a Process decides when new transaction demands arrive (the temporal
//     axis): the paper's Bernoulli process, a two-state Markov-modulated
//     bursty on/off process, and a deterministic-rate process;
//   - a Model defines what a transaction is (the protocol axis): the
//     paper's 2-hop/3-hop coherence mix, an open-loop datagram model with
//     a configurable packet-size mix, and a trace-replay model.
//
// The Generator composes one of each over the timing-model network; the
// paper's §4.2 workload is the random pattern with the Bernoulli process
// and the coherence model. Any run can record its injection stream to a
// versioned Trace; replaying the trace re-injects the identical packet
// sequence under any arbiter.
package workload

import (
	"fmt"
	"strings"

	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// Pattern draws the destination for a new request (the spatial half of a
// workload). Implementations must be deterministic given the RNG stream:
// equal seeds and call sequences yield equal destinations.
type Pattern interface {
	// Name returns the pattern's canonical parse name.
	Name() string
	// Dest draws the destination of a request from src. Permutation
	// patterns ignore the RNG; random patterns must draw from it (and only
	// from it) so runs are reproducible.
	Dest(src topology.Node, rng *sim.RNG) topology.Node
}

// uniformPattern draws destinations uniformly over the other nodes.
// (Permutation patterns may map a node to itself; such requests are
// local-memory accesses that still traverse the router from the cache
// port to the MC port.)
type uniformPattern struct {
	torus topology.Torus
}

func (uniformPattern) Name() string { return "random" }

func (u uniformPattern) Dest(src topology.Node, rng *sim.RNG) topology.Node {
	for {
		d := topology.Node(rng.Intn(u.torus.Nodes()))
		if d != src || u.torus.Nodes() == 1 {
			return d
		}
	}
}

// NewUniform returns the uniform-random pattern (the paper's "random"
// traffic).
func NewUniform(t topology.Torus) Pattern { return uniformPattern{torus: t} }

// permPattern is a deterministic permutation of the node ids.
type permPattern struct {
	name string
	perm func(topology.Node) topology.Node
}

func (p permPattern) Name() string { return p.name }

func (p permPattern) Dest(src topology.Node, _ *sim.RNG) topology.Node { return p.perm(src) }

// NewBitReversal returns the paper's bit-reversal permutation pattern
// (power-of-two node counts only).
func NewBitReversal(t topology.Torus) Pattern {
	return permPattern{name: "bit-reversal", perm: t.BitReversal}
}

// NewPerfectShuffle returns the paper's perfect-shuffle permutation
// pattern (power-of-two node counts only).
func NewPerfectShuffle(t topology.Torus) Pattern {
	return permPattern{name: "perfect-shuffle", perm: t.PerfectShuffle}
}

// NewTranspose returns the matrix-transpose permutation pattern
// (x, y) -> (y, x), a bijection on square tori.
func NewTranspose(t topology.Torus) Pattern {
	return permPattern{name: "transpose", perm: t.Transpose}
}

// NewTornado returns the tornado permutation pattern: every node sends
// just under half-way around each torus ring, the adversarial case for
// wrap-link load.
func NewTornado(t topology.Torus) Pattern {
	return permPattern{name: "tornado", perm: t.Tornado}
}

// NewNeighbor returns the nearest-neighbor permutation pattern
// (x, y) -> (x+1, y), the best case for locality.
func NewNeighbor(t topology.Torus) Pattern {
	return permPattern{name: "neighbor", perm: t.NeighborShift}
}

// Hotspot sends a fraction of the traffic to a weighted set of hotspot
// nodes and the rest uniformly over the other nodes — the classic
// contended-home-node scenario.
type Hotspot struct {
	uniform uniformPattern
	// Fraction in [0, 1] of requests directed at a hotspot.
	fraction float64
	targets  []topology.Node
	cum      cumDist
}

// NewHotspot returns a hotspot pattern. fraction of the requests go to
// one of the targets (chosen by weight); the remainder are uniform over
// the other nodes. weights may be nil for equal weighting; otherwise it
// must match targets in length, with positive entries.
func NewHotspot(t topology.Torus, targets []topology.Node, weights []float64, fraction float64) (*Hotspot, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("workload: hotspot needs at least one target")
	}
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("workload: hotspot fraction %g outside [0, 1]", fraction)
	}
	for _, n := range targets {
		if int(n) < 0 || int(n) >= t.Nodes() {
			return nil, fmt.Errorf("workload: hotspot target %d outside the %d-node torus", n, t.Nodes())
		}
	}
	if weights == nil {
		weights = make([]float64, len(targets))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(targets) {
		return nil, fmt.Errorf("workload: %d hotspot weights for %d targets", len(weights), len(targets))
	}
	cum, err := newCumDist(weights)
	if err != nil {
		return nil, fmt.Errorf("hotspot: %w", err)
	}
	return &Hotspot{uniform: uniformPattern{torus: t}, fraction: fraction, targets: targets, cum: cum}, nil
}

// DefaultHotspot returns the default hotspot: the center node draws 25%
// of all requests.
func DefaultHotspot(t topology.Torus) *Hotspot {
	center := t.Node(topology.Coord{X: t.Width / 2, Y: t.Height / 2})
	h, err := NewHotspot(t, []topology.Node{center}, nil, 0.25)
	if err != nil {
		panic(err) // unreachable: the default arguments are valid
	}
	return h
}

func (h *Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (h *Hotspot) Dest(src topology.Node, rng *sim.RNG) topology.Node {
	if rng.Bernoulli(h.fraction) {
		return h.targets[h.cum.draw(rng)]
	}
	return h.uniform.Dest(src, rng)
}

// patternOrder lists the canonical pattern names in listing order.
var patternOrder = []string{
	"random", "bit-reversal", "perfect-shuffle", "transpose", "tornado", "neighbor", "hotspot",
}

var patternAliases = map[string]string{
	"uniform": "random", // "random" is the paper's name for uniform traffic
	"shuffle": "perfect-shuffle",
}

// PatternNames returns the canonical pattern names in listing order.
func PatternNames() []string {
	out := make([]string, len(patternOrder))
	copy(out, patternOrder)
	return out
}

// NewPattern resolves a pattern by name (case-insensitive; "uniform" and
// "shuffle" are accepted aliases) on the given torus, rejecting the
// bit-permutation patterns on tori whose node count is not a power of
// two. The hotspot pattern is returned with its defaults; build custom
// hotspots with NewHotspot.
func NewPattern(name string, t topology.Torus) (Pattern, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := patternAliases[key]; ok {
		key = canon
	}
	switch key {
	case "random":
		return NewUniform(t), nil
	case "bit-reversal", "perfect-shuffle":
		if _, ok := t.BitWidth(); !ok {
			return nil, fmt.Errorf("workload: %s requires a power-of-two node count, got %dx%d",
				key, t.Width, t.Height)
		}
		if key == "bit-reversal" {
			return NewBitReversal(t), nil
		}
		return NewPerfectShuffle(t), nil
	case "transpose":
		return NewTranspose(t), nil
	case "tornado":
		return NewTornado(t), nil
	case "neighbor":
		return NewNeighbor(t), nil
	case "hotspot":
		return DefaultHotspot(t), nil
	}
	return nil, fmt.Errorf("workload: unknown pattern %q (valid: %s)",
		name, strings.Join(patternOrder, ", "))
}
