// Package xrand provides the deterministic randomness substrate for the
// simulator: seeded PRNG construction, SplitMix64 seed derivation for
// parallel trials, and samplers for the distributions the protocols and
// graph generators need.
//
// Every simulation run is driven by a single *RNG derived from a 64-bit
// seed, so identical seeds reproduce identical traces. Parallel trials
// derive independent child seeds with Derive, which passes the (seed, index)
// pair through SplitMix64 — a well-dispersed 64-bit mixer — so trial streams
// do not overlap in practice.
package xrand

import "math/rand/v2"

// RNG is a deterministic pseudo-random number generator. It wraps the
// stdlib PCG generator behind a fixed construction so the whole repository
// shares one seeding discipline.
type RNG struct {
	*rand.Rand
}

// New returns an RNG seeded with seed. Two RNGs built from the same seed
// produce identical streams.
func New(seed uint64) *RNG {
	// The second PCG word is a fixed odd constant so that New(seed) is a
	// pure function of seed.
	return &RNG{rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

// SplitMix64 advances and mixes x per Steele et al.'s SplitMix64. It is the
// standard way to spawn well-separated seeds from a master seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive returns the i-th child seed of seed. Children with distinct (seed,
// i) pairs are well-dispersed.
func Derive(seed uint64, i int) uint64 {
	return SplitMix64(seed ^ SplitMix64(uint64(i)+0x52dce729))
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

// Binomial returns a sample of Bin(n, p). It uses direct simulation for
// small n and a normal approximation is deliberately avoided: the simulator
// only needs Binomial for test oracles and workload generators where n is
// modest, so exactness wins over speed.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("xrand: Binomial requires n >= 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// BTRS would be faster for large n·p, but direct simulation keeps this
	// exact and dependency-free; callers keep n in the thousands at most.
	c := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			c++
		}
	}
	return c
}

// Perm fills out with a uniformly random permutation of {0, ..., len(out)-1}.
func (r *RNG) Perm(out []int32) {
	for i := range out {
		out[i] = int32(i)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
