// Package trajectory models agent trajectories as sequences of segments.
//
// The paper's algorithms are built from three navigation primitives: walking
// in a (discretised) straight line to a node, performing a spiral search
// around a node, and returning to the source. Each primitive, plus the pause
// of the asynchronous-start remark, is one kind of Seg: a deterministic
// sub-path with a known duration. The analytic simulation engine asks a Seg
// one constant-time question, Scan ("where does it start and end, how long is
// it, and when does it first stand on the treasure?"), to skip over long
// spiral searches without enumerating every cell; the exact engine uses
// ForEach to enumerate cells one by one. Scan uses closed forms
// (grid.PathHitTime, grid.SpiralIndex) and ForEach enumerates
// (grid.ForEachOnPath, grid.SpiralOffset); the property tests pin each
// closed form to the enumeration.
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

// Seg is a deterministic contiguous piece of an agent trajectory, as a
// concrete tagged union: it is passed and stored by value, so emitting one
// per sortie leg costs no allocation and querying it costs no interface
// dispatch.
//
// A Seg of duration n occupies positions at the n+1 time offsets 0, 1, ...,
// n, where offset 0 is Start() and offset n is End(). Offset 0 of a segment
// coincides (in simulated time) with the final offset of the previous
// segment, so engines must take care not to double-count it.
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

// WalkSeg returns the straight-line (staircase) walk from one node to
// another, used both for the "walk to a node chosen at random" primitive and
// for returning to the source. A zero-length walk (from == to) is valid.
func WalkSeg(from, to grid.Point) Seg {
	return Seg{kind: KindWalk, a: from, b: to, n: grid.PathLength(from, to)}
}

// SpiralSeg returns the spiral search around centre covering spiral step
// indices [fromStep, toStep]; the position at offset t is
// centre + SpiralOffset(fromStep + t). It panics if the range is invalid
// (fromStep < 0 or toStep < fromStep): spiral bounds are always computed by
// the algorithms themselves, so an invalid range is a programming error.
func SpiralSeg(centre grid.Point, fromStep, toStep int) Seg {
	if fromStep < 0 || toStep < fromStep {
		panic(fmt.Sprintf("trajectory: invalid spiral range [%d, %d]", fromStep, toStep))
	}
	return Seg{kind: KindSpiral, a: centre, b: centre.Add(grid.SpiralOffset(toStep)), n: fromStep, m: toStep}
}

// SpiralSearchSeg returns a fresh spiral search of the given number of steps
// starting at centre (negative step counts clamp to zero).
func SpiralSearchSeg(centre grid.Point, steps int) Seg {
	if steps < 0 {
		steps = 0
	}
	return Seg{kind: KindSpiral, a: centre, b: centre.Add(grid.SpiralOffset(steps)), m: steps}
}

// PauseSeg returns a pause of the given duration at the given node (negative
// durations clamp to zero). The paper's core model starts all agents
// simultaneously; Section 2 notes that the assumption "can easily be
// removed", and the agent package's Delayed wrapper emits a pause to model
// agents that begin their search at different times.
func PauseSeg(at grid.Point, duration int) Seg {
	if duration < 0 {
		duration = 0
	}
	return Seg{kind: KindPause, a: at, n: duration}
}

// Kind returns the segment's shape tag.
func (s Seg) Kind() Kind { return s.kind }

// Start returns the node the segment begins at.
func (s Seg) Start() grid.Point {
	if s.kind == KindSpiral {
		return s.a.Add(grid.SpiralOffset(s.n))
	}
	return s.a
}

// End returns the node the segment ends at.
func (s Seg) End() grid.Point {
	if s.kind == KindPause {
		return s.a
	}
	return s.b
}

// Duration returns the number of time units the segment lasts: edge
// traversals for a walk or spiral, waiting steps for a pause.
func (s Seg) Duration() int {
	if s.kind == KindSpiral {
		return s.m - s.n
	}
	return s.n
}

// Scan answers, in a single dispatch on the segment's kind, every query the
// analytic engine makes of a segment: where it starts and ends, how long it
// lasts, and whether — and at which offset from the segment start — it first
// visits target. start, end and duration equal Start, End and Duration; the
// hit offset is the first offset at which ForEach reports target. The fused
// form exists for the simulation hot loop, which would otherwise pay several
// kind switches (and, for spirals, two SpiralOffset evaluations) per segment.
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

// ForEach calls fn for every time offset in order, starting at 0. If fn
// returns false the iteration stops and ForEach returns false.
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
