package grid

import "math"

// This file implements the balls B(r) = {v : d(s, v) <= r} used throughout
// the paper: counting their nodes, indexing their rings and mapping a
// uniform index to a node so that "go to a node chosen uniformly at random
// among the nodes of B(r)" can be implemented with a single random number.

// BallSize returns |B(r)|, the number of grid nodes at L1 distance at most r
// from a centre. For r >= 0 this is 2r² + 2r + 1; for negative r it is 0.
func BallSize(r int) int {
	if r < 0 {
		return 0
	}
	return 2*r*r + 2*r + 1
}

// RingSize returns the number of grid nodes at L1 distance exactly r from a
// centre: 1 for r == 0 and 4r for r >= 1.
func RingSize(r int) int {
	switch {
	case r < 0:
		return 0
	case r == 0:
		return 1
	default:
		return 4 * r
	}
}

// RingPoint returns the j-th node (0-indexed) of the L1 ring of radius r
// around the origin, for 0 <= j < RingSize(r). The enumeration starts at
// (r, 0) and proceeds counter-clockwise. RingPoint panics if j is out of
// range; callers index rings with values they computed from RingSize, so an
// out-of-range index is a programming error.
func RingPoint(r, j int) Point {
	if r == 0 {
		if j != 0 {
			panic("grid: ring index out of range for radius 0")
		}
		return Origin
	}
	if j < 0 || j >= 4*r {
		panic("grid: ring index out of range")
	}
	quadrant, o := j/r, j%r
	switch quadrant {
	case 0: // (r,0) -> (1, r-1)
		return Point{X: r - o, Y: o}
	case 1: // (0,r) -> (-(r-1), 1)
		return Point{X: -o, Y: r - o}
	case 2: // (-r,0) -> (-1, -(r-1))
		return Point{X: -(r - o), Y: -o}
	default: // (0,-r) -> (r-1, -1)
		return Point{X: o, Y: -(r - o)}
	}
}

// BallPoint maps an index i in [0, BallSize(radius)) to a node of the ball
// B(radius) centred at the origin. Distinct indices map to distinct nodes and
// every node of the ball is covered, so sampling i uniformly yields a node of
// the ball chosen uniformly at random. BallPoint panics on an out-of-range
// index.
func BallPoint(radius, i int) Point {
	if i < 0 || i >= BallSize(radius) {
		panic("grid: ball index out of range")
	}
	if i == 0 {
		return Origin
	}
	// Find the ring r >= 1 that contains index i. The cumulative count of
	// nodes in rings 0..r is BallSize(r), so we need the smallest r with
	// BallSize(r) > i.
	r := ringOfBallIndex(i)
	offset := i - BallSize(r-1)
	return RingPoint(r, offset)
}

// ringOfBallIndex returns the L1 radius of the ring containing ball index
// i >= 1. It solves 2r² + 2r + 1 > i for the smallest r using the quadratic
// formula and then fixes up rounding with at most two adjustment steps.
func ringOfBallIndex(i int) int {
	// BallSize(r-1) <= i  <=>  2r² - 2r + 1 <= i.
	// Start from the real solution of 2r² - 2r + 1 = i.
	r := int(0.5 + 0.5*sqrtFloat(float64(2*i-1)))
	if r < 1 {
		r = 1
	}
	for BallSize(r-1) > i {
		r--
	}
	for BallSize(r) <= i {
		r++
	}
	return r
}

// sqrtFloat wraps math.Sqrt so that the grid package's only floating-point
// use is visible in one place (the result is always fixed up with integer
// comparisons by the caller).
func sqrtFloat(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
