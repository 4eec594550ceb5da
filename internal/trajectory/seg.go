package trajectory

import (
	"fmt"

	"antsearch/internal/grid"
)

// Kind identifies the concrete shape of a Seg.
type Kind uint8

// The three navigation primitives of Section 2, plus the pause used by the
// asynchronous-start relaxation.
const (
	KindWalk Kind = iota
	KindSpiral
	KindPause
)

// Seg is a trajectory segment as a concrete tagged union instead of a boxed
// Segment interface value. It is the representation the simulation engines
// move through the hot path: a Seg is passed and stored by value, so emitting
// one per sortie leg costs no allocation and querying it costs no interface
// dispatch. Seg also implements Segment; the boxed Walk, Spiral and Pause
// types serve as its reference in this package's tests.
//
// Field use by kind:
//
//	KindWalk:   a = from, b = to, n = cached path length
//	KindSpiral: a = centre, b = cached end node, n = fromStep, m = toStep
//	KindPause:  a = node, n = duration
//
// The walk length and the spiral end are computed once at construction: the
// engines ask for Duration and End several times per segment, and the spiral
// end costs a square root per evaluation.
//
// The zero Seg is a zero-length walk at the origin.
type Seg struct {
	kind Kind
	a, b grid.Point
	n, m int
}

var _ Segment = Seg{}

// WalkSeg returns the straight-line (staircase) walk from one node to
// another, with the path length computed once at construction.
func WalkSeg(from, to grid.Point) Seg {
	return Seg{kind: KindWalk, a: from, b: to, n: grid.PathLength(from, to)}
}

// SpiralSeg returns the spiral search around centre covering step indices
// [fromStep, toStep]. It panics on an invalid range, like NewSpiral.
func SpiralSeg(centre grid.Point, fromStep, toStep int) Seg {
	if fromStep < 0 || toStep < fromStep {
		panic(fmt.Sprintf("trajectory: invalid spiral range [%d, %d]", fromStep, toStep))
	}
	return Seg{kind: KindSpiral, a: centre, b: centre.Add(grid.SpiralOffset(toStep)), n: fromStep, m: toStep}
}

// SpiralSearchSeg returns a fresh spiral search of the given number of steps
// starting at centre (negative step counts clamp to zero, like
// NewSpiralSearch).
func SpiralSearchSeg(centre grid.Point, steps int) Seg {
	if steps < 0 {
		steps = 0
	}
	return Seg{kind: KindSpiral, a: centre, b: centre.Add(grid.SpiralOffset(steps)), m: steps}
}

// PauseSeg returns a pause of the given duration at the given node (negative
// durations clamp to zero, like NewPause).
func PauseSeg(at grid.Point, duration int) Seg {
	if duration < 0 {
		duration = 0
	}
	return Seg{kind: KindPause, a: at, n: duration}
}

// Seg converts the Walk to the union representation.
func (w Walk) Seg() Seg { return Seg{kind: KindWalk, a: w.from, b: w.to, n: w.length} }

// Seg converts the Spiral to the union representation.
func (s Spiral) Seg() Seg {
	return Seg{kind: KindSpiral, a: s.centre, b: s.End(), n: s.fromStep, m: s.toStep}
}

// Seg converts the Pause to the union representation.
func (p Pause) Seg() Seg { return Seg{kind: KindPause, a: p.at, n: p.duration} }

// Kind returns the segment's shape tag.
func (s Seg) Kind() Kind { return s.kind }

// AsWalk returns the walk this Seg represents, if it is one.
func (s Seg) AsWalk() (Walk, bool) {
	if s.kind != KindWalk {
		return Walk{}, false
	}
	return Walk{from: s.a, to: s.b, length: s.n}, true
}

// AsSpiral returns the spiral this Seg represents, if it is one.
func (s Seg) AsSpiral() (Spiral, bool) {
	if s.kind != KindSpiral {
		return Spiral{}, false
	}
	return Spiral{centre: s.a, fromStep: s.n, toStep: s.m}, true
}

// AsPause returns the pause this Seg represents, if it is one.
func (s Seg) AsPause() (Pause, bool) {
	if s.kind != KindPause {
		return Pause{}, false
	}
	return Pause{at: s.a, duration: s.n}, true
}

// Start implements Segment.
func (s Seg) Start() grid.Point {
	if s.kind == KindSpiral {
		return s.a.Add(grid.SpiralOffset(s.n))
	}
	return s.a
}

// End implements Segment.
func (s Seg) End() grid.Point {
	if s.kind == KindPause {
		return s.a
	}
	return s.b
}

// Duration implements Segment.
func (s Seg) Duration() int {
	if s.kind == KindSpiral {
		return s.m - s.n
	}
	return s.n
}

// HitTime implements Segment.
func (s Seg) HitTime(target grid.Point) (int, bool) {
	switch s.kind {
	case KindWalk:
		return grid.PathHitTime(s.a, s.b, target)
	case KindSpiral:
		idx := grid.SpiralIndex(target.Sub(s.a))
		if idx < s.n || idx > s.m {
			return 0, false
		}
		return idx - s.n, true
	default:
		if target == s.a {
			return 0, true
		}
		return 0, false
	}
}

// Scan answers, in a single dispatch on the segment's kind, every query the
// analytic engine makes of a segment: where it starts and ends, how long it
// lasts, and whether — and at which offset from the segment start — it first
// visits target. It is exactly equivalent to calling Start, End, Duration and
// HitTime separately; the fused form exists for the simulation hot loop,
// which would otherwise pay four kind switches (and, for spirals, two
// SpiralOffset evaluations) per segment.
//
//antlint:hotpath
func (s Seg) Scan(target grid.Point) (start, end grid.Point, duration, hitOff int, hit bool) {
	switch s.kind {
	case KindWalk:
		hitOff, hit = grid.PathHitTime(s.a, s.b, target)
		return s.a, s.b, s.n, hitOff, hit
	case KindSpiral:
		if idx := grid.SpiralIndex(target.Sub(s.a)); idx >= s.n && idx <= s.m {
			hitOff, hit = idx-s.n, true
		}
		return s.a.Add(grid.SpiralOffset(s.n)), s.b, s.m - s.n, hitOff, hit
	default: // KindPause
		return s.a, s.a, s.n, 0, target == s.a
	}
}

// At implements Segment.
func (s Seg) At(t int) grid.Point {
	if t < 0 || t > s.Duration() {
		panic("trajectory: segment offset out of range")
	}
	switch s.kind {
	case KindWalk:
		return grid.PathPoint(s.a, s.b, t)
	case KindSpiral:
		return s.a.Add(grid.SpiralOffset(s.n + t))
	default:
		return s.a
	}
}

// ForEach implements Segment.
func (s Seg) ForEach(fn func(t int, p grid.Point) bool) bool {
	switch s.kind {
	case KindWalk:
		completed := true
		grid.ForEachOnPath(s.a, s.b, func(t int, p grid.Point) bool {
			if !fn(t, p) {
				completed = false
				return false
			}
			return true
		})
		return completed
	case KindSpiral:
		for t := 0; t <= s.m-s.n; t++ {
			if !fn(t, s.a.Add(grid.SpiralOffset(s.n+t))) {
				return false
			}
		}
		return true
	default:
		for t := 0; t <= s.n; t++ {
			if !fn(t, s.a) {
				return false
			}
		}
		return true
	}
}

// String implements fmt.Stringer.
func (s Seg) String() string {
	switch s.kind {
	case KindWalk:
		return fmt.Sprintf("walk %v->%v (%d steps)", s.a, s.b, s.n)
	case KindSpiral:
		return fmt.Sprintf("spiral at %v steps [%d,%d]", s.a, s.n, s.m)
	default:
		return fmt.Sprintf("pause at %v for %d steps", s.a, s.n)
	}
}
