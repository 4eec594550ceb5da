package grid

import "math"

// This file implements the deterministic spiral search primitive of the
// paper (footnote 1 of Section 2): a local search path that starts at a
// centre node and, after traversing x edges, has visited every node within
// distance Θ(√x) of the centre. The paper allows any procedure with this
// property; we use the square (Ulam-style) spiral because both the forward
// map (step index → position) and the inverse map (position → step index)
// have closed forms, which lets the analytic simulation engine answer
// "when does this spiral hit the treasure?" in O(1).
//
// The spiral enumerates the grid in Chebyshev (L∞) rings. Ring 0 is the
// centre alone. Ring r >= 1 holds the 8r nodes at Chebyshev distance exactly
// r and occupies step indices [(2r-1)², (2r+1)² - 1]. Within a ring the walk
// goes up the right edge, left along the top edge, down the left edge and
// right along the bottom edge, ending at the bottom-right corner (r, -r); the
// next step moves to (r+1, -r), the first node of the following ring, so the
// whole sequence is a legal grid walk: consecutive positions are neighbours.

// SpiralOffset returns the offset from the spiral's centre after step index
// i >= 0 (index 0 is the centre itself). Consecutive indices are adjacent
// grid nodes. SpiralOffset panics on a negative index.
func SpiralOffset(i int) Point {
	if i < 0 {
		panic("grid: negative spiral index")
	}
	if i == 0 {
		return Origin
	}
	r := spiralRingOf(i)
	j := i - (2*r-1)*(2*r-1) // offset within ring r, 0 <= j < 8r
	edge, o := j/(2*r), j%(2*r)
	switch edge {
	case 0: // right edge, (r, -(r-1)) up to (r, r)
		return Point{X: r, Y: -(r - 1) + o}
	case 1: // top edge, (r-1, r) left to (-r, r)
		return Point{X: r - 1 - o, Y: r}
	case 2: // left edge, (-r, r-1) down to (-r, -r)
		return Point{X: -r, Y: r - 1 - o}
	default: // bottom edge, (-(r-1), -r) right to (r, -r)
		return Point{X: -(r - 1) + o, Y: -r}
	}
}

// SpiralIndex returns the step index at which the spiral (centred at the
// origin) visits the node at the given offset. It is the inverse of
// SpiralOffset.
func SpiralIndex(offset Point) int {
	r := offset.Linf()
	if r == 0 {
		return 0
	}
	base := (2*r - 1) * (2*r - 1)
	x, y := offset.X, offset.Y
	switch {
	case x == r && y > -r: // right edge (includes corner (r, r))
		return base + (y + r - 1)
	case y == r: // top edge (includes corner (-r, r))
		return base + 2*r + (r - 1 - x)
	case x == -r: // left edge (includes corner (-r, -r))
		return base + 4*r + (r - 1 - y)
	default: // bottom edge y == -r (includes corner (r, -r))
		return base + 6*r + (x + r - 1)
	}
}

// spiralRingOf returns the Chebyshev ring that contains spiral step index
// i >= 1, i.e. the unique r with (2r-1)² <= i < (2r+1)².
func spiralRingOf(i int) int {
	r := int((math.Sqrt(float64(i)) + 1) / 2)
	if r < 1 {
		r = 1
	}
	for (2*r-1)*(2*r-1) > i {
		r--
	}
	for (2*r+1)*(2*r+1) <= i {
		r++
	}
	return r
}
