// Package adversary implements treasure-placement strategies. In the paper
// the treasure is placed by an adversary at an arbitrary node at distance D
// from the source and all bounds are worst-case over that choice; the
// experiment harness approximates the adversary in several ways and also
// provides benign placements for the average-case views of the same
// quantities.
package adversary

import (
	"fmt"

	"antsearch/internal/grid"
	"antsearch/internal/xrand"
)

// Strategy produces the treasure location for each trial of an experiment.
// Implementations must be pure functions of (their own parameters, the trial
// index, the provided stream), so that experiments are reproducible and
// trials can run on any number of goroutines concurrently.
type Strategy interface {
	// Name returns a short identifier used in tables.
	Name() string
	// Distance returns the distance D from the source at which this strategy
	// places treasures.
	Distance() int
	// Place returns the treasure location for the given trial, optionally
	// using rng (which is derived deterministically from the trial index by
	// the caller).
	Place(trial int, rng *xrand.Stream) grid.Point
}

// FixedPoint always places the treasure at the same node.
type FixedPoint struct {
	Target grid.Point
}

var _ Strategy = FixedPoint{}

// Name implements Strategy.
func (f FixedPoint) Name() string { return fmt.Sprintf("fixed%v", f.Target) }

// Distance implements Strategy.
func (f FixedPoint) Distance() int { return f.Target.L1() }

// Place implements Strategy.
func (f FixedPoint) Place(int, *xrand.Stream) grid.Point { return f.Target }

// UniformRing places the treasure uniformly at random on the ring of radius D
// around the source. This is the natural "average case over directions" and
// is the default placement used by the experiments: the paper's algorithms
// are direction-symmetric, so the expectation over a uniform ring placement
// equals the average over all placements at distance D, and is a lower bound
// on the adversarial (worst-case) expectation.
type UniformRing struct {
	D int
}

var _ Strategy = UniformRing{}

// NewUniformRing returns a UniformRing strategy at distance d. It returns an
// error if d < 1: the treasure is never placed on the source itself.
func NewUniformRing(d int) (UniformRing, error) {
	if d < 1 {
		return UniformRing{}, fmt.Errorf("adversary: ring distance must be at least 1, got %d", d)
	}
	return UniformRing{D: d}, nil
}

// Name implements Strategy.
func (u UniformRing) Name() string { return fmt.Sprintf("ring(D=%d)", u.D) }

// Distance implements Strategy.
func (u UniformRing) Distance() int { return u.D }

// Place implements Strategy.
func (u UniformRing) Place(_ int, rng *xrand.Stream) grid.Point {
	return rng.UniformRingPoint(u.D)
}

// Axis places the treasure deterministically on the positive x axis at
// distance D. Useful for unit tests and for the deterministic baselines whose
// worst case depends on the direction.
type Axis struct {
	D int
}

var _ Strategy = Axis{}

// Name implements Strategy.
func (a Axis) Name() string { return fmt.Sprintf("axis(D=%d)", a.D) }

// Distance implements Strategy.
func (a Axis) Distance() int { return a.D }

// Place implements Strategy.
func (a Axis) Place(int, *xrand.Stream) grid.Point { return grid.Point{X: a.D} }
