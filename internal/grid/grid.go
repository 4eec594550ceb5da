// Package grid provides the two-dimensional integer grid Z² on which the
// collaborative search of Feinerman, Korman, Lotker and Sereni (PODC 2012)
// takes place, together with the geometric primitives the paper's algorithms
// rely on: hop (L1) distance, balls around the source, straight "staircase"
// walks between nodes, and the deterministic spiral search used as the local
// search primitive.
//
// All coordinates are integers; the source node of the search is by
// convention the origin. Distances follow the paper: d(u, v) is the hop
// distance on the grid, i.e. the L1 (Manhattan) distance.
package grid

import "fmt"

// Point is a node of the infinite grid Z².
type Point struct {
	X int
	Y int
}

// Origin is the source node s from which every agent starts its search.
var Origin = Point{}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%d,%d)", p.X, p.Y)
}

// Add returns the translation of p by q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point {
	return Point{X: p.X - q.X, Y: p.Y - q.Y}
}

// L1 returns the hop distance of p from the origin, |x| + |y|.
func (p Point) L1() int {
	return abs(p.X) + abs(p.Y)
}

// Linf returns the Chebyshev distance of p from the origin, max(|x|, |y|).
func (p Point) Linf() int {
	return max(abs(p.X), abs(p.Y))
}

// Dist returns the hop distance between p and q (the metric d(u,v) of the
// paper).
func Dist(p, q Point) int {
	return p.Sub(q).L1()
}

// Direction identifies one of the four axis-parallel unit moves an agent can
// perform in one time unit.
type Direction int

// The four grid directions. Following the Go style guides, the enum starts at
// one so that the zero value is recognisably invalid.
const (
	East Direction = iota + 1
	North
	West
	South
)

// NumDirections is the number of valid directions.
const NumDirections = 4

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case East:
		return "east"
	case North:
		return "north"
	case West:
		return "west"
	case South:
		return "south"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// Unit returns the unit vector associated with the direction.
func (d Direction) Unit() Point {
	switch d {
	case East:
		return Point{X: 1}
	case North:
		return Point{Y: 1}
	case West:
		return Point{X: -1}
	case South:
		return Point{Y: -1}
	default:
		return Point{}
	}
}

// Step returns the neighbour of p in direction d.
func (p Point) Step(d Direction) Point {
	return p.Add(d.Unit())
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
