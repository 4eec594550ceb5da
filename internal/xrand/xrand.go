// Package xrand provides the deterministic randomness substrate for the
// search simulations: reproducible per-trial and per-agent random streams and
// the samplers the paper's algorithms need (uniform nodes of a ball, random
// directions, and the heavy-tailed "harmonic" distribution
// p(u) ∝ 1/d(u)^(2+δ) of Section 5).
//
// Reproducibility is central to the experiment harness: every stream is
// derived from an experiment seed plus a path of indices (trial, agent, ...)
// via SplitMix64, so results do not depend on scheduling, on the number of
// worker goroutines, or on the order in which trials run.
//
// Stream is a value type holding the PCG generator state inline, so the
// simulation engines can keep one stream per agent slot in flat storage and
// Reset it between trials instead of allocating a new generator per trial —
// the trial hot path performs no RNG allocations at all. The outputs are
// bit-identical to the previous *rand.Rand-backed implementation: the
// generator is the standard library's PCG (embedded by value) and the derived
// samplers replicate math/rand/v2's algorithms exactly, pinned by
// TestStreamMatchesStdlib.
package xrand

import (
	"math"
	"math/bits"

	// xrand is the one engine package allowed to touch the stdlib RNG: the
	// PCG generator and the sampler algorithms here replicate math/rand/v2
	// bit for bit from explicit seeds only (pinned by TestStreamMatchesStdlib);
	// no ambient (globally seeded) state is ever consulted.
	"math/rand/v2" //antlint:allow detrand deterministic parity shims over explicitly seeded PCG
)

// splitMix64 advances the SplitMix64 generator state and returns the next
// 64-bit output. It is used only for seed derivation, not as the simulation
// generator itself.
func splitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed combines a base seed with a path of stream indices into a new
// seed. Distinct paths yield statistically independent seeds, and the mapping
// is deterministic.
func DeriveSeed(base uint64, path ...uint64) uint64 {
	s := splitMix64(base ^ 0x6a09e667f3bcc908)
	for _, p := range path {
		s = splitMix64(s ^ splitMix64(p^0xbb67ae8584caa73b))
	}
	return s
}

// Stream is a deterministic pseudo-random stream: the standard library's PCG
// generator held by value, plus the domain-specific samplers used by the
// search algorithms. The zero value is a valid (zero-seeded) stream; use
// NewStream or Reset to seed it. Streams must not be copied after first use
// (copies would replay the same values); engines embed them in per-agent
// state and pass pointers around.
type Stream struct {
	pcg rand.PCG
}

// NewStream returns a stream seeded from the base seed and the given path of
// indices (for example trial index then agent index).
func NewStream(base uint64, path ...uint64) *Stream {
	s := &Stream{}
	s.Reset(base, path...)
	return s
}

// Reset reseeds the stream in place from the base seed and path, exactly as
// NewStream would, without allocating. The simulation engines call it between
// trials to reuse one stream per agent slot across a whole shard.
func (s *Stream) Reset(base uint64, path ...uint64) {
	seed := DeriveSeed(base, path...)
	s.pcg.Seed(seed, splitMix64(seed))
}

// Uint64 returns a uniformly distributed 64-bit value.
//
//antlint:hotpath
func (s *Stream) Uint64() uint64 { return s.pcg.Uint64() }

// uint64n returns a uniform value in [0, n) for n > 0, replicating
// math/rand/v2's nearly-divisionless reduction (Lemire) so the consumed
// generator values — and therefore every downstream sample — match the
// previous rand.Rand-backed implementation bit for bit.
//
//antlint:hotpath
func (s *Stream) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 { // n is a power of two; mask
		return s.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(s.pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.pcg.Uint64(), n)
		}
	}
	return hi
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
//
//antlint:hotpath
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("xrand: invalid argument to IntN")
	}
	return int(s.uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
//
//antlint:hotpath
func (s *Stream) Float64() float64 {
	// There are exactly 1<<53 float64s in [0,1); math/rand/v2's construction.
	return float64(s.pcg.Uint64()<<11>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
//
//antlint:hotpath
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// PowerLawRadius samples an integer radius r >= 1 with probability
// proportional to r^-(1+delta), for delta > 0. The support is unbounded; the
// sampler uses exact rejection from the continuous Pareto envelope
// floor(U^(-1/delta)) and therefore needs no truncation. This is the radial
// component of the harmonic distribution of Section 5 (the node is then
// uniform on the L1 ring of radius r, giving p(u) ∝ 1/d(u)^(2+delta)).
func (s *Stream) PowerLawRadius(delta float64) int {
	if delta <= 0 {
		panic("xrand: PowerLawRadius requires delta > 0")
	}
	// Proposal q(r) = P(floor(X) = r) = r^-delta - (r+1)^-delta where
	// X = U^(-1/delta) is continuous Pareto(delta) on [1, ∞). The target is
	// pi(r) ∝ r^-(1+delta) and pi(r) <= M·q(r) with M = 2^(1+delta)/delta.
	m := math.Pow(2, 1+delta) / delta
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		x := math.Pow(u, -1/delta)
		if x >= float64(math.MaxInt64/4) {
			// Astronomically rare; resample rather than overflow.
			continue
		}
		r := int(x)
		if r < 1 {
			r = 1
		}
		q := math.Pow(float64(r), -delta) - math.Pow(float64(r+1), -delta)
		target := math.Pow(float64(r), -(1 + delta))
		if q <= 0 {
			continue
		}
		if s.Float64()*m*q < target {
			return r
		}
	}
}
