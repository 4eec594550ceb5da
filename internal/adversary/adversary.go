// Package adversary names the treasure placement the sweep engine uses. In
// the paper an adversary puts the treasure at an arbitrary node at distance D
// from the source and all bounds are worst-case over that choice; the
// engine (sim.TrialConfig.Distance) places it uniformly at random on the ring
// at D instead. UniformRing is that placement as a value, for callers that
// replay the engine's trials on their own (antbench's replay probe).
package adversary

import (
	"fmt"

	"antsearch/internal/grid"
	"antsearch/internal/xrand"
)

// UniformRing places the treasure uniformly at random on the ring of radius D
// around the source. The paper's algorithms are direction-symmetric, so the
// expectation over a uniform ring placement equals the average over all
// placements at distance D, and is a lower bound on the adversarial
// (worst-case) expectation.
type UniformRing struct {
	D int
}

// NewUniformRing returns a UniformRing placement at distance d. It returns an
// error if d < 1: the treasure is never placed on the source itself.
func NewUniformRing(d int) (UniformRing, error) {
	if d < 1 {
		return UniformRing{}, fmt.Errorf("adversary: ring distance must be at least 1, got %d", d)
	}
	return UniformRing{D: d}, nil
}

// Distance returns the distance D at which the treasure is placed.
func (u UniformRing) Distance() int { return u.D }

// Place returns the treasure location for a trial, drawn from rng. The sweep
// engine draws the same point from the trial's placement stream
// xrand.NewStream(seed, xrand.PathPlacement, trial).
func (u UniformRing) Place(_ int, rng *xrand.Stream) grid.Point {
	return rng.UniformRingPoint(u.D)
}
