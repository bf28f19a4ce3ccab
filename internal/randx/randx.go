// Package randx provides deterministic random number generation for the
// simulators and experiments in this repository.
//
// Every generator in this package is fully determined by its seed, so data
// sets, workloads and experiments are reproducible bit-for-bit across runs.
// The core generator is SplitMix64 feeding an xoshiro256** state, a small,
// fast, well-tested PRNG that avoids any dependency beyond the standard
// library.
package randx

import (
	"fmt"
	"math"
)

// Source is a deterministic pseudo-random source. It intentionally mirrors a
// subset of math/rand so call sites read familiarly, but it guarantees a
// stable stream for a given seed across Go releases (math/rand's global
// functions do not).
type Source struct {
	s [4]uint64

	// Box-Muller generates normal deviates in pairs; the second one is
	// cached here until the next call to NormFloat64.
	haveSpare bool
	spare     float64
}

// splitMix64 advances a SplitMix64 state and returns the next value. It is
// used only to seed the main generator, as recommended by the xoshiro
// authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	sm := seed
	var s Source
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// A state of all zeros is the one forbidden state for xoshiro256**.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
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

// Fork returns a new Source whose stream is independent from r's future
// output. It is used to give each column or block of a synthetic data set
// its own stream, so adding columns does not perturb existing ones.
func (r *Source) Fork() *Source {
	seed := r.Uint64()
	return New(seed)
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	// 53 random mantissa bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// simple rejection keeps the stream easy to reason about.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Two variates are generated per transform; the spare is cached.
func (r *Source) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.haveSpare = true
	return u * f
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Source) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// Uniform returns a uniform variate in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Categorical draws an index from the (unnormalized) weight vector w.
// It panics if w is empty or the total weight is not positive.
func (r *Source) Categorical(w []float64) int {
	if len(w) == 0 {
		panic("randx: Categorical with empty weights")
	}
	total := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic(fmt.Sprintf("randx: Categorical with invalid weight %v", x))
		}
		total += x
	}
	if total <= 0 {
		panic("randx: Categorical with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
