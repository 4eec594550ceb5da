package trajectory

import (
	"fmt"

	"antsearch/internal/grid"
)

// Path is a recorded, finite trajectory: a sequence of contiguous segments
// with precomputed cumulative durations. It supports the same queries as a
// single segment (position at a global time, first hit time of a node); only
// this package's tests use it. Engines do not need a Path: they consume
// segments lazily.
type Path struct {
	segments []Segment
	// cumulative[i] is the total duration of segments[0..i-1]; cumulative[0]
	// is 0 and cumulative[len(segments)] is the total duration.
	cumulative []int
}

// NewPath builds a Path from contiguous segments. It returns an error if two
// consecutive segments do not share an endpoint, because such a trajectory
// would teleport the agent.
func NewPath(segments ...Segment) (*Path, error) {
	p := &Path{
		segments:   make([]Segment, 0, len(segments)),
		cumulative: make([]int, 1, len(segments)+1),
	}
	for _, seg := range segments {
		if err := p.Append(seg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Append adds one segment to the end of the path. The segment must start
// where the path currently ends (unless the path is empty).
func (p *Path) Append(seg Segment) error {
	if n := len(p.segments); n > 0 {
		if prevEnd := p.segments[n-1].End(); prevEnd != seg.Start() {
			return fmt.Errorf("trajectory: segment %v does not start at previous end %v: %w",
				seg, prevEnd, ErrDiscontinuous)
		}
	}
	p.segments = append(p.segments, seg)
	p.cumulative = append(p.cumulative, p.cumulative[len(p.cumulative)-1]+seg.Duration())
	return nil
}

// ErrDiscontinuous reports that two consecutive segments do not share an
// endpoint.
var ErrDiscontinuous = fmt.Errorf("discontinuous trajectory")

// Len returns the number of segments.
func (p *Path) Len() int { return len(p.segments) }

// Segment returns the i-th segment.
func (p *Path) Segment(i int) Segment { return p.segments[i] }

// Duration returns the total number of edge traversals of the path.
func (p *Path) Duration() int { return p.cumulative[len(p.cumulative)-1] }

// Start returns the first node of the path. It panics on an empty path.
func (p *Path) Start() grid.Point { return p.segments[0].Start() }

// End returns the last node of the path. It panics on an empty path.
func (p *Path) End() grid.Point { return p.segments[len(p.segments)-1].End() }

// At returns the position at global time t, 0 <= t <= Duration().
func (p *Path) At(t int) grid.Point {
	if t < 0 || t > p.Duration() {
		panic("trajectory: path time out of range")
	}
	// Find the segment containing time t (the last segment whose start time
	// is <= t) by binary search over the cumulative durations.
	lo, hi := 0, len(p.segments)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.cumulative[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return p.segments[lo].At(t - p.cumulative[lo])
}

// HitTime returns the first global time at which the path stands on target.
func (p *Path) HitTime(target grid.Point) (int, bool) {
	for i, seg := range p.segments {
		if off, ok := seg.HitTime(target); ok {
			return p.cumulative[i] + off, true
		}
	}
	return 0, false
}

// ForEach visits every (time, position) pair of the path in order. Positions
// shared between consecutive segments (the junction nodes) are reported only
// once. If fn returns false the iteration stops and ForEach returns false.
func (p *Path) ForEach(fn func(t int, pt grid.Point) bool) bool {
	for i, seg := range p.segments {
		base := p.cumulative[i]
		completed := seg.ForEach(func(t int, pt grid.Point) bool {
			if i > 0 && t == 0 {
				return true // junction node already reported by previous segment
			}
			return fn(base+t, pt)
		})
		if !completed {
			return false
		}
	}
	return true
}

// Nodes returns every node visited by the path in order of first visit,
// including duplicates for revisits (one entry per time step).
func (p *Path) Nodes() []grid.Point {
	nodes := make([]grid.Point, 0, p.Duration()+1)
	p.ForEach(func(_ int, pt grid.Point) bool {
		nodes = append(nodes, pt)
		return true
	})
	return nodes
}

// DistinctNodes returns the set of distinct nodes visited by the path.
func (p *Path) DistinctNodes() map[grid.Point]struct{} {
	set := make(map[grid.Point]struct{})
	p.ForEach(func(_ int, pt grid.Point) bool {
		set[pt] = struct{}{}
		return true
	})
	return set
}
