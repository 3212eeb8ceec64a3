package sim

import "math/bits"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256**), independent of the Go standard library's generator so
// that simulation results are reproducible across Go releases. The zero
// value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed using SplitMix64,
// which guarantees a well-mixed non-zero state for any seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// Split returns a new generator deterministically derived from this one,
// for handing independent streams to sub-components.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// intnThreshold[n] is Intn's rejection threshold -n % n for small n.
var intnThreshold = func() (t [129]uint64) {
	for n := uint64(1); n < uint64(len(t)); n++ {
		t[n] = -n % n
	}
	return
}()

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	bound := uint64(n)
	if bound&(bound-1) == 0 {
		// Powers of two (including the very common n = 1 and n = 2 from
		// arbitration draws) never reject and reduce by masking. The
		// returned value and the number of Uint64 draws are identical to
		// the general path: its threshold is 0 and v % bound == v & (bound-1).
		return int(r.Uint64() & (bound - 1))
	}
	// Lemire's nearly-divisionless method would be overkill here; modulo
	// bias is negligible for the small n used by arbitration policies, but
	// we reject to keep the distribution exact. The rejection threshold
	// for the small bounds arbitration draws use comes from a table, which
	// saves one of the two divisions per draw.
	var threshold uint64
	if bound < uint64(len(intnThreshold)) {
		threshold = intnThreshold[bound]
	} else {
		threshold = -bound % bound
	}
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pick returns a uniform element index among k candidates encoded as a
// bitmask over 64 positions. It panics if mask is zero. The k-th set bit
// is located by clearing k low set bits and taking the trailing-zero
// count, so the cost tracks the popcount rather than the word width.
func (r *RNG) Pick(mask uint64) int {
	n := bits.OnesCount64(mask)
	if n == 0 {
		panic("sim: Pick with empty mask")
	}
	for k := r.Intn(n); k > 0; k-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros64(mask)
}
