package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"alpha21364/internal/sim"
)

// Differential oracle for the bitplane kernels (satellite of the
// word-parallel rewrite): every production arbiter and rotating grant
// policy must reproduce its retained scalar reference (reference_test.go)
// byte for byte over randomized matrix sequences. Shapes, validity densities,
// ages (with deliberate ties), keys (with deliberate duplicates, modeling
// the adaptive two-column case), and row metadata are all randomized; the
// production and reference instances are seeded identically and must stay
// in lock-step across an entire sequence, which exercises the evolution of
// the fairness state (pointers, LRS clocks, RNG draws), not just a single
// call.

// fillDiff populates m with a random request pattern. Ages are drawn
// from a small range so ties are common, and keys collide across cells so
// SPAA's adaptive second-column probe fires.
func fillDiff(m *Matrix, rnd *rand.Rand, density float64) {
	m.Reset()
	keyRange := uint64(m.Rows*m.Cols/2 + 1)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if rnd.Float64() >= density {
				continue
			}
			age := int64(rnd.Intn(5))
			key := uint64(rnd.Intn(int(keyRange)))
			m.Set(r, c, age, key, int32(rnd.Intn(1<<16)))
		}
	}
}

// randomShape picks a matrix shape and randomizes its row metadata. Kinds
// whose grant policy is sized for the 21364 (SPAA-rotary) stay within the
// router shape; the rest roam up to MaxDim.
func randomShape(rnd *rand.Rand, routerOnly bool) *Matrix {
	var rows, cols int
	if routerOnly {
		rows, cols = 1+rnd.Intn(RouterRows), 1+rnd.Intn(RouterCols)
	} else {
		rows, cols = 1+rnd.Intn(MaxDim), 1+rnd.Intn(MaxDim)
	}
	m := NewMatrix(rows, cols)
	ports := 1 + rnd.Intn(rows)
	for r := 0; r < rows; r++ {
		m.RowPort[r] = int8(rnd.Intn(ports))
		m.RowNetwork[r] = rnd.Intn(2) == 0
	}
	m.SyncRowMeta()
	return m
}

// kernelPair builds a production arbiter and its scalar reference, seeded
// identically.
type kernelPair struct {
	name       string
	routerOnly bool
	make       func(seed uint64) (prod, ref Arbiter)
}

func kernelPairs() []kernelPair {
	var pairs []kernelPair
	for k := Kind(0); k < NumKinds; k++ {
		k := k
		pairs = append(pairs, kernelPair{
			name:       k.String(),
			routerOnly: k == KindSPAARotary,
			make: func(seed uint64) (Arbiter, Arbiter) {
				return New(k, sim.NewRNG(seed)), NewReferenceArbiter(k, sim.NewRNG(seed))
			},
		})
	}
	for _, iters := range []int{1, 2, 3} {
		iters := iters
		pairs = append(pairs, kernelPair{
			name: fmt.Sprintf("iSLIP-%d", iters),
			make: func(uint64) (Arbiter, Arbiter) {
				return NewISLIP(iters), NewReferenceISLIP(iters)
			},
		})
	}
	pairs = append(pairs, kernelPair{
		name: "WFA-plain",
		make: func(uint64) (Arbiter, Arbiter) {
			return NewWFAPlain(), NewReferenceWFAPlain()
		},
	})
	return pairs
}

// runDifferential drives one production/reference pair in lock-step over a
// sequence of random matrices (fixed shape per sequence, as for a real
// router) and fails on the first divergence. It also runs the matching
// oracle over the production grants.
func runDifferential(t *testing.T, p kernelPair, seed uint64, steps int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(int64(seed)))
	prod, ref := p.make(seed)
	m := randomShape(rnd, p.routerOnly)
	for step := 0; step < steps; step++ {
		fillDiff(m, rnd, rnd.Float64())
		want := append([]Grant(nil), ref.Arbitrate(m)...)
		got := prod.Arbitrate(m)
		if !reflect.DeepEqual(append([]Grant(nil), got...), want) {
			t.Fatalf("%s diverged from reference at step %d (seed %d, shape %dx%d):\nprod %v\nref  %v",
				p.name, step, seed, m.Rows, m.Cols, got, want)
		}
		if err := CheckMatching(m, got); err != nil {
			t.Fatalf("%s produced an illegal matching at step %d (seed %d): %v", p.name, step, seed, err)
		}
	}
}

// TestKernelDifferential locks every bitplane kernel against its scalar
// reference over randomized matrix sequences.
func TestKernelDifferential(t *testing.T) {
	const trials, steps = 25, 24
	for _, p := range kernelPairs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < trials; trial++ {
				runDifferential(t, p, uint64(0x9E3779B9*trial+7), steps)
			}
		})
	}
}

// TestPolicyDifferential locks the mask-based grant policies (round-robin,
// priority-chain, and rotary/plain LRS) against their scalar references
// over random candidate sets, including the stateful pointer/clock
// evolution.
func TestPolicyDifferential(t *testing.T) {
	const rows, cols = RouterRows, RouterCols
	type policyPair struct {
		name string
		prod SelectPolicy
		ref  SelectPolicy
	}
	pairs := []policyPair{
		{"round-robin", NewRoundRobinPolicy(rows, cols), newRefRoundRobin(rows, cols)},
		{"priority-chain", NewPriorityChainPolicy(), refPriorityChain{}},
		{"lrs", NewLRSPolicy(rows, cols, false), refSelectPolicy{newRefGrantPolicy(rows, cols, false)}},
		{"rotary-lrs", NewLRSPolicy(rows, cols, true), refSelectPolicy{newRefGrantPolicy(rows, cols, true)}},
	}
	for _, p := range pairs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(len(p.name))))
			var cand []int
			var network []bool
			for step := 0; step < 4000; step++ {
				col := rnd.Intn(cols)
				cand, network = cand[:0], network[:0]
				seen := make(map[int]bool)
				for n := 1 + rnd.Intn(rows); len(cand) < n; {
					r := rnd.Intn(rows)
					if seen[r] {
						continue
					}
					seen[r] = true
					cand = append(cand, r)
					network = append(network, rnd.Intn(2) == 0)
				}
				want := p.ref.Select(col, cand, network)
				got := p.prod.Select(col, cand, network)
				if got != want {
					t.Fatalf("%s diverged at step %d (col %d, rows %v, net %v): prod %d, ref %d",
						p.name, step, col, cand, network, got, want)
				}
			}
		})
	}
}

// refSelectPolicy adapts refGrantPolicy to SelectPolicy for the table
// above.
type refSelectPolicy struct{ p *refGrantPolicy }

func (r refSelectPolicy) Name() string { return "ref-lrs" }
func (r refSelectPolicy) Select(col int, rows []int, network []bool) int {
	return r.p.Select(col, rows, network)
}

// FuzzArbiterKernels is the fuzz entry for the same property: any seed
// and kernel selector must keep production and reference in lock-step.
func FuzzArbiterKernels(f *testing.F) {
	pairs := kernelPairs()
	for i := range pairs {
		f.Add(uint64(i)*0xABCD+1, uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, which uint8) {
		p := pairs[int(which)%len(pairs)]
		runDifferential(t, p, seed, 8)
	})
}
