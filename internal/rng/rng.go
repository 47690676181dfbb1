// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the experiment harness.
//
// Reproducibility is a first-class requirement for the benchmark tables:
// every experiment is parameterized by a seed and must produce the same
// instance on every platform. math/rand's global state and version-drifting
// algorithms are avoided; this package implements xoshiro256** with a
// SplitMix64 seeder, both with published reference outputs.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. The zero value is invalid; construct
// with New. RNG is not safe for concurrent use; Split off per-goroutine
// generators instead of sharing one.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed via SplitMix64.
// Any seed, including 0, is valid.
func New(seed uint64) *RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

// Split returns a new generator whose stream is a deterministic function of
// the parent's current state but statistically independent of the parent's
// subsequent output. The parent advances by one step.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
