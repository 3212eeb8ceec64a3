package main

// reference.go is the reference job the benchmark times right after every
// timed run. The benchmark host shares its cores with other tenants, whose
// load slows this process by up to 1.7x in phases lasting from a second to
// minutes, and no statistic of raw times over one invocation escapes
// phases that long. The reference job slows with them: it is fixed code
// of the benchmark's own, touching no simulator package, that mixes what
// the simulator does (map updates, sorting, independent integer work and
// dependent loads from a table larger than a core's L2). The fastest
// run's wall time over the fastest reference job's measures the
// simulator's cost in units the host's phases largely cancel out of.
// README.md has the data.

import (
	"sort"
	"time"
)

// refTable is a single random cycle over 4 MiB of int32 successors.
var refTable = func() []int32 {
	const n = 1 << 20
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint32(1)
	for i := n - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]int32, n)
	for i, p := range perm {
		next[p] = perm[(i+1)%n]
	}
	return next
}()

// refNominal is about the fastest the reference job runs on the benchmark
// host (Intel Xeon, KVM, Go 1.24.0). A set-up time is scaled by refNominal
// over the reference time measured just before it, so setup_s reads as
// seconds on that host's core at its fastest.
const refNominal = 0.07

// refSink keeps the reference job's results live.
var refSink uint64

// referenceSeconds runs the reference job once and returns its host
// seconds (0.065 to 0.08 s at its fastest on the benchmark host).
func referenceSeconds() float64 {
	start := time.Now()
	var acc uint64

	j := int32(0)
	for i := 0; i < 1_000_000; i++ {
		j = refTable[j]
	}
	acc += uint64(j)

	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 10_000_000; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		a ^= b >> 13
		c ^= d >> 7
	}
	acc += a + b + c + d

	keys := make([]uint32, 50_000)
	x := uint32(9)
	for i := range keys {
		x = x*1664525 + 1013904223
		keys[i] = x
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	acc += uint64(keys[len(keys)/2])

	m := map[uint32]uint32{}
	for i := 0; i < 250_000; i++ {
		x = x*1664525 + 1013904223
		m[x>>12] += x
	}
	acc += uint64(len(m))

	refSink += acc
	return time.Since(start).Seconds()
}
