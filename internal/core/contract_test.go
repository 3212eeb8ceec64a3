package core

// contract_test.go property-tests the Arbiter contract across every
// algorithm in the package — the paper's measured configurations (SPAA,
// PIM, PIM1, WFA, MCM, OPF) and the extension points (iSLIP, WFA-plain)
// — against randomized request matrices that respect the 21364 builder
// invariants:
//
//   - legality: every grant set is a matching over valid cells
//     (CheckMatching);
//   - progress: a non-empty matrix always yields at least one grant;
//   - maximality, for the algorithms that guarantee it (MCM, both WFA
//     variants, WFA-plain): no trivially addable grant remains — no valid
//     cell whose row and column are both ungranted. The nomination-based
//     algorithms (SPAA, OPF) and the iterative ones (PIM, PIM1, iSLIP)
//     deliberately admit collisions or early termination in exchange for
//     hardware cost, so only progress is asserted for them;
//   - read-only: Arbitrate leaves every cell and bitplane word of the
//     matrix as it found them, since a caller may keep one matrix across
//     calls;
//   - no aliasing: mutating the matrix after Arbitrate must not change
//     the returned grants (they are copies, valid until the next call);
//   - determinism: an identically seeded fresh arbiter replaying the
//     same matrix sequence reproduces every grant byte for byte.

import (
	"fmt"
	"slices"
	"testing"

	"alpha21364/internal/sim"
)

// contractCase is one arbiter under contract test.
type contractCase struct {
	name string
	// fresh constructs a new, identically seeded instance.
	fresh func() Arbiter
	// maximal marks algorithms whose matchings are guaranteed maximal.
	maximal bool
}

func contractCases(seed uint64) []contractCase {
	cases := []contractCase{
		{"iSLIP", func() Arbiter { return NewISLIP(PIMFullIterations) }, false},
		{"WFA-plain", func() Arbiter { return NewWFAPlain() }, true},
	}
	maximalKinds := map[Kind]bool{
		KindMCM: true, KindWFABase: true, KindWFARotary: true,
	}
	for k := Kind(0); k < NumKinds; k++ {
		k := k
		cases = append(cases, contractCase{
			name:    k.String(),
			fresh:   func() Arbiter { return New(k, sim.NewRNG(seed)) },
			maximal: maximalKinds[k],
		})
	}
	return cases
}

// randomMatrix fills a fresh 16x7 router-shaped matrix with up to 24
// random packets, each in one row and at most two columns — the builder
// invariants the timing router and standalone model uphold.
func randomMatrix(rng *sim.RNG, nextKey *uint64) *Matrix {
	m := NewRouterMatrix()
	n := rng.Intn(25)
	for i := 0; i < n; i++ {
		*nextKey++
		row := rng.Intn(m.Rows)
		age := int64(rng.Intn(60))
		c1 := rng.Intn(m.Cols)
		m.Set(row, c1, age, *nextKey, int32(row))
		if rng.Intn(2) == 0 {
			c2 := rng.Intn(m.Cols)
			if c2 != c1 {
				m.Set(row, c2, age, *nextKey, int32(row))
			}
		}
	}
	return m
}

// checkMaximal reports a valid cell whose row and column are both
// ungranted — a trivially addable grant a maximal matching cannot leave.
func checkMaximal(m *Matrix, grants []Grant) error {
	var rowUsed [RouterRows]bool
	var colUsed [RouterCols]bool
	for _, g := range grants {
		rowUsed[g.Row] = true
		colUsed[g.Col] = true
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.At(r, c).Valid && !rowUsed[r] && !colUsed[c] {
				return fmt.Errorf("addable grant left on cell (%d,%d)", r, c)
			}
		}
	}
	return nil
}

func copyGrants(grants []Grant) []Grant {
	return append([]Grant(nil), grants...)
}

func TestArbiterContract(t *testing.T) {
	const rounds = 300
	for _, tc := range contractCases(42) {
		t.Run(tc.name, func(t *testing.T) {
			// Pre-generate the matrix sequence so the determinism replay
			// below sees the identical inputs.
			mrng := sim.NewRNG(99)
			var nextKey uint64
			matrices := make([]*Matrix, rounds)
			for i := range matrices {
				matrices[i] = randomMatrix(mrng, &nextKey)
				if err := matrices[i].Validate(); err != nil {
					t.Fatalf("matrix generator broke the builder invariants: %v", err)
				}
			}

			arb := tc.fresh()
			history := make([][]Grant, rounds)
			for i, m := range matrices {
				cells, rows, cols := slices.Clone(m.cells), slices.Clone(m.rowValid), slices.Clone(m.colReq)
				grants := arb.Arbitrate(m)
				if !slices.Equal(m.cells, cells) || !slices.Equal(m.rowValid, rows) || !slices.Equal(m.colReq, cols) {
					t.Fatalf("round %d: Arbitrate modified the matrix", i)
				}
				if err := CheckMatching(m, grants); err != nil {
					t.Fatalf("round %d: illegal matching: %v", i, err)
				}
				if m.ValidCount() > 0 && len(grants) == 0 {
					t.Fatalf("round %d: %d requests pending but no grant issued", i, m.ValidCount())
				}
				if tc.maximal {
					if err := checkMaximal(m, grants); err != nil {
						t.Fatalf("round %d: matching not maximal: %v", i, err)
					}
				}
				history[i] = copyGrants(grants)

				// Aliasing: wrecking the matrix must not reach into the
				// returned grants — they are valid until the next call.
				held := grants
				for r := 0; r < m.Rows; r++ {
					for c := 0; c < m.Cols; c++ {
						m.Clear(r, c)
					}
				}
				if !slices.Equal(held, history[i]) {
					t.Fatalf("round %d: grants alias the matrix (mutating cells changed them)", i)
				}
			}

			// Determinism: a fresh, identically seeded arbiter replaying
			// the same sequence reproduces every grant. (The matrices were
			// cleared above; regenerate the identical sequence.)
			mrng = sim.NewRNG(99)
			nextKey = 0
			replay := tc.fresh()
			for i := 0; i < rounds; i++ {
				m := randomMatrix(mrng, &nextKey)
				grants := replay.Arbitrate(m)
				if !slices.Equal(grants, history[i]) {
					t.Fatalf("round %d: replay diverged:\n got %+v\nwant %+v", i, grants, history[i])
				}
			}
		})
	}
}

// TestArbiterEmptyMatrix: every arbiter must return an empty matching on
// an empty matrix, and must tolerate repeated empty rounds (scratch reuse
// with nothing to reuse).
func TestArbiterEmptyMatrix(t *testing.T) {
	m := NewRouterMatrix()
	for _, tc := range contractCases(7) {
		arb := tc.fresh()
		for i := 0; i < 3; i++ {
			if grants := arb.Arbitrate(m); len(grants) != 0 {
				t.Errorf("%s: empty matrix yielded %d grants", tc.name, len(grants))
			}
		}
	}
}
