// Package core implements the search algorithms that are the paper's primary
// contribution (Feinerman, Korman, Lotker, Sereni, "Collaborative Search on
// the Plane without Communication", PODC 2012):
//
//   - KnownK — the non-uniform algorithm of Theorem 3.1 (Algorithm 3 in the
//     appendix), which achieves the optimal expected time O(D + D²/k) when
//     the agents know k.
//   - RhoApprox — the constant-approximation variant of Corollary 3.2: each
//     agent runs KnownK with its own ρ-approximation of k, paying at most a
//     ρ² factor.
//   - Uniform — Algorithm 1 (Theorem 3.3), the uniform (k-oblivious) search
//     that is O(log^(1+ε) k)-competitive.
//   - Harmonic — Algorithm 2 (Theorem 5.1), the extremely simple one-shot
//     algorithm driven by the heavy-tailed distribution p(u) ∝ 1/d(u)^(2+δ).
//   - HarmonicRestart — a natural extension (not in the paper) that repeats
//     the harmonic sortie until the treasure is found, giving a uniform
//     algorithm with finite expected time for every k.
//
// All algorithms are expressed as agent.Algorithm values: identical agents,
// no communication, randomness only through the per-agent stream handed to
// NewSearcher. Advice about k (exact value, ρ-approximation, or nothing) is
// captured at construction time, matching the paper's model of "input given
// to every agent before the search starts".
package core

import (
	"math"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
)

// maxSpiralSteps bounds the length of a single spiral search segment. The
// algorithms' schedules grow geometrically, so without a bound a simulation
// that is about to be cut off by its time cap could still ask for a segment
// whose length overflows int. The bound is far larger than any cap used by
// the experiments (2^40 ≈ 10^12 steps).
const maxSpiralSteps = 1 << 40

// maxBallRadius bounds the radius of the ball from which sortie targets are
// drawn, for the same reason.
const maxBallRadius = 1 << 30

// clampSteps truncates a (possibly huge) floating-point step count to the
// supported range.
func clampSteps(v float64) int {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > maxSpiralSteps {
		return maxSpiralSteps
	}
	return int(v)
}

// clampRadius truncates a (possibly huge) floating-point radius to the
// supported range, never below zero.
func clampRadius(v float64) int {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > maxBallRadius {
		return maxBallRadius
	}
	return int(v)
}

// sortie describes one "go somewhere, search locally, come home" excursion:
// the building block shared by all the paper's algorithms (basic procedures
// 1–4 of Section 2).
type sortie struct {
	target      grid.Point
	spiralSteps int
}

// appendSortie appends a sortie's explicit segments to buf — walk out, spiral,
// walk back — and returns the extended slice; it is the shared body of every
// searcher's EmitSortie, constructing the segments straight into the engine's
// buffer. The walks are omitted when they would be empty (a target at the
// source, or a spiral ending there); the spiral is always emitted, even with
// zero steps, so every sortie appends at least one segment.
func appendSortie(buf []trajectory.Seg, so sortie) []trajectory.Seg {
	if so.target != grid.Origin {
		buf = append(buf, trajectory.WalkSeg(grid.Origin, so.target))
	}
	spiral := trajectory.SpiralSearchSeg(so.target, so.spiralSteps)
	buf = append(buf, spiral)
	if spiral.End() != grid.Origin {
		buf = append(buf, trajectory.WalkSeg(spiral.End(), grid.Origin))
	}
	return buf
}

// compile-time interface checks for the algorithm types defined in this
// package.
var (
	_ agent.Algorithm = (*KnownK)(nil)
	_ agent.Algorithm = (*RhoApprox)(nil)
	_ agent.Algorithm = (*Uniform)(nil)
	_ agent.Algorithm = (*Harmonic)(nil)
	_ agent.Algorithm = (*HarmonicRestart)(nil)
)
