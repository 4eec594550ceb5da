package xrand

import "antsearch/internal/grid"

// This file contains the samplers that produce grid nodes: the "choose a
// direction uniformly at random" and "go to a node of B(r) chosen uniformly
// at random" primitives of Section 2, and the harmonic node distribution of
// Section 5.

// Direction returns one of the four grid directions uniformly at random.
func (s *Stream) Direction() grid.Direction {
	return grid.Direction(s.IntN(grid.NumDirections) + 1)
}

// UniformBallPoint returns a node of the L1 ball of the given radius centred
// at the origin, chosen uniformly at random among all its BallSize(radius)
// nodes (the source itself included, as in the paper's Algorithm 1 and 3).
func (s *Stream) UniformBallPoint(radius int) grid.Point {
	if radius < 0 {
		panic("xrand: negative ball radius")
	}
	return grid.BallPoint(radius, s.IntN(grid.BallSize(radius)))
}

// UniformRingPoint returns a node at L1 distance exactly radius from the
// origin, chosen uniformly at random.
func (s *Stream) UniformRingPoint(radius int) grid.Point {
	if radius < 0 {
		panic("xrand: negative ring radius")
	}
	if radius == 0 {
		return grid.Origin
	}
	return grid.RingPoint(radius, s.IntN(grid.RingSize(radius)))
}

// HarmonicPoint samples a node u of the grid (excluding the origin) with
// probability p(u) = c/d(u)^(2+delta), the distribution used by the harmonic
// search algorithm (Section 5). It first samples the radius r with
// probability proportional to r^-(1+delta) and then a uniform node of the L1
// ring of radius r, which yields exactly the harmonic distribution because
// ring r contains 4r nodes.
func (s *Stream) HarmonicPoint(delta float64) grid.Point {
	r := s.PowerLawRadius(delta)
	return grid.RingPoint(r, s.IntN(grid.RingSize(r)))
}
