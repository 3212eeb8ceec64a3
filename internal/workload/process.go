package workload

import (
	"fmt"
	"strings"

	"alpha21364/internal/sim"
)

// Process is the temporal arrival law: how many new transaction demands
// arrive at a node on one router cycle. A Process may keep per-node state
// (burst phases, rate accumulators); Bind sizes that state before the run.
// Implementations must draw randomness only from the RNG passed to
// Arrivals so that runs are reproducible.
type Process interface {
	// Name returns the process's canonical parse name.
	Name() string
	// Rate returns the configured mean arrival rate (demands per node per
	// cycle).
	Rate() float64
	// Bind allocates per-node state; the Generator calls it once, before
	// the first Arrivals call.
	Bind(nodes int)
	// Arrivals returns the number of new demands at node on this cycle.
	Arrivals(node int, rng *sim.RNG) int
}

// Bernoulli is the paper's arrival process: one demand with probability
// rate, independently per node per cycle.
type Bernoulli struct {
	rate float64
}

// NewBernoulli returns a Bernoulli arrival process at the given rate.
func NewBernoulli(rate float64) *Bernoulli { return &Bernoulli{rate: rate} }

func (b *Bernoulli) Name() string  { return "bernoulli" }
func (b *Bernoulli) Rate() float64 { return b.rate }
func (b *Bernoulli) Bind(int)      {}

// Arrivals implements Process with exactly the RNG draw sequence of the
// pre-workload traffic generator (one Bernoulli draw per node per cycle),
// so the paper's figures are bit-identical across the refactor.
func (b *Bernoulli) Arrivals(_ int, rng *sim.RNG) int {
	if rng.Bernoulli(b.rate) {
		return 1
	}
	return 0
}

// OnOff is a two-state Markov-modulated bursty process: each node is
// independently ON (demands arrive Bernoulli at OnRate) or OFF (silent),
// with geometric sojourn times. The stationary ON fraction is
// POffOn/(POffOn+POnOff), so the long-run mean rate is that fraction
// times OnRate.
type OnOff struct {
	meanRate float64
	OnRate   float64 // arrival probability per cycle while ON
	POnOff   float64 // P(ON -> OFF) per cycle; 1/POnOff is the mean burst length
	POffOn   float64 // P(OFF -> ON) per cycle
	// state[n]: 0 = undrawn, 1 = OFF, 2 = ON. The initial state is drawn
	// from the stationary distribution on first use so there is no
	// cold-start bias.
	state []uint8
}

// DefaultBurstCycles is the mean ON-burst length of NewOnOff, in router
// cycles.
const DefaultBurstCycles = 16

// NewOnOff returns a bursty on/off process with the given long-run mean
// rate. Nodes are ON a quarter of the time in bursts averaging
// DefaultBurstCycles cycles, so the ON-state rate is 4x the mean. Above
// a mean of 0.25 the ON-state rate saturates at one demand per cycle, so
// the ON fraction rises instead, keeping the delivered mean equal to the
// requested rate (at the cost of burstiness); at a mean of 1 the process
// degenerates to always-ON. Tune the exported fields for other burst
// shapes.
func NewOnOff(rate float64) *OnOff {
	onFraction := 0.25
	if rate > onFraction {
		onFraction = rate // ON at rate 1 for a `rate` share of the time
	}
	if onFraction >= 1 {
		// Degenerate: permanently ON (POffOn 1, POnOff 0), Bernoulli at
		// the capped rate.
		return &OnOff{meanRate: rate, OnRate: 1, POnOff: 0, POffOn: 1}
	}
	pOnOff := 1.0 / DefaultBurstCycles
	// Stationary ON fraction f satisfies f = pOffOn/(pOffOn+pOnOff).
	pOffOn := pOnOff * onFraction / (1 - onFraction)
	return &OnOff{meanRate: rate, OnRate: rate / onFraction, POnOff: pOnOff, POffOn: pOffOn}
}

func (p *OnOff) Name() string  { return "onoff" }
func (p *OnOff) Rate() float64 { return p.meanRate }

func (p *OnOff) Bind(nodes int) { p.state = make([]uint8, nodes) }

func (p *OnOff) Arrivals(node int, rng *sim.RNG) int {
	if p.state == nil {
		panic("workload: OnOff.Arrivals before Bind")
	}
	if p.state[node] == 0 {
		frac := p.POffOn / (p.POffOn + p.POnOff)
		if rng.Bernoulli(frac) {
			p.state[node] = 2
		} else {
			p.state[node] = 1
		}
	}
	// Transition first, then draw: a node switching ON can burst this
	// very cycle.
	if p.state[node] == 2 {
		if rng.Bernoulli(p.POnOff) {
			p.state[node] = 1
		}
	} else if rng.Bernoulli(p.POffOn) {
		p.state[node] = 2
	}
	if p.state[node] == 2 && rng.Bernoulli(p.OnRate) {
		return 1
	}
	return 0
}

// Deterministic injects at an exact rate with no variance: each node
// accrues rate demands per cycle and fires whenever the accumulator
// crosses one. Initial credit is staggered across nodes so the network
// does not see a synchronized injection front every 1/rate cycles.
type Deterministic struct {
	rate  float64
	accum []float64
}

// NewDeterministic returns a deterministic-rate process.
func NewDeterministic(rate float64) *Deterministic { return &Deterministic{rate: rate} }

func (d *Deterministic) Name() string  { return "deterministic" }
func (d *Deterministic) Rate() float64 { return d.rate }

func (d *Deterministic) Bind(nodes int) {
	d.accum = make([]float64, nodes)
	for n := range d.accum {
		d.accum[n] = float64(n) / float64(nodes)
	}
}

func (d *Deterministic) Arrivals(node int, _ *sim.RNG) int {
	if d.accum == nil {
		panic("workload: Deterministic.Arrivals before Bind")
	}
	d.accum[node] += d.rate
	n := 0
	for d.accum[node] >= 1 {
		d.accum[node]--
		n++
	}
	return n
}

// silent is the no-arrivals process used under trace replay.
type silent struct{}

func (silent) Name() string               { return "silent" }
func (silent) Rate() float64              { return 0 }
func (silent) Bind(int)                   {}
func (silent) Arrivals(int, *sim.RNG) int { return 0 }

// NewSilent returns a process that never generates demands (replay runs
// inject from the trace instead).
func NewSilent() Process { return silent{} }

var processOrder = []string{"bernoulli", "onoff", "deterministic"}

var processAliases = map[string]string{
	"bursty":   "onoff",
	"periodic": "deterministic",
}

// ProcessNames returns the canonical arrival-process names in listing
// order.
func ProcessNames() []string {
	out := make([]string, len(processOrder))
	copy(out, processOrder)
	return out
}

// NewProcess resolves an arrival process by name (case-insensitive;
// "bursty" and "periodic" are accepted aliases) at the given mean rate.
func NewProcess(name string, rate float64) (Process, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := processAliases[key]; ok {
		key = canon
	}
	switch key {
	case "", "bernoulli":
		return NewBernoulli(rate), nil
	case "onoff":
		return NewOnOff(rate), nil
	case "deterministic":
		return NewDeterministic(rate), nil
	}
	return nil, fmt.Errorf("workload: unknown arrival process %q (valid: %s)",
		name, strings.Join(processOrder, ", "))
}
