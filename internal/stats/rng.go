// Package stats provides the deterministic random-number generation and
// statistical summaries used throughout the OPTIMA experiments.
//
// Reproducibility matters for a design-space exploration tool: every
// experiment in the repository is seeded, and the generator implementation
// is frozen here (xoshiro256**) rather than delegated to math/rand so that
// published numbers remain bit-stable across Go releases.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256** pseudo-random generator with helpers
// for the distributions used in OPTIMA (uniform, Gaussian). It is not safe
// for concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
	// cached second Box–Muller variate
	haveGauss bool
	gauss     float64
}

// NewRNG returns a generator seeded from the given seed value using
// splitmix64, which guarantees a well-mixed non-zero state for any seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated by mixing a fresh draw through splitmix64.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit value.
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("stats: IntN with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Norm returns a standard Gaussian variate via the Box–Muller transform.
func (r *RNG) Norm() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
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
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// Gaussian returns a Gaussian variate with the given mean and standard
// deviation.
func (r *RNG) Gaussian(mean, sigma float64) float64 {
	return mean + sigma*r.Norm()
}

// Perm fills a permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
