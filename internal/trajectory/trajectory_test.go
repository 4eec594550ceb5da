package trajectory

import (
	"fmt"
	"testing"
	"testing/quick"

	"antsearch/internal/grid"
)

// checkSeg pins s against its own ForEach enumeration, which walks the
// segment position by position (grid.ForEachOnPath, grid.SpiralOffset) and so
// shares nothing with Scan's closed forms (grid.PathHitTime,
// grid.SpiralIndex). The enumeration must report offsets 0..Duration() in
// order, start at Start(), end at End(), move one edge per step (a pause
// stays put), and stop when asked; Scan must then report the same start, end
// and duration, and hit every enumerated node and every extra target exactly
// at the offset of its first visit, or not at all.
func checkSeg(t *testing.T, s Seg, targets ...grid.Point) {
	t.Helper()
	var path []grid.Point
	first := make(map[grid.Point]int)
	completed := s.ForEach(func(off int, p grid.Point) bool {
		if off != len(path) {
			t.Fatalf("%v: ForEach reported offset %d at position %d", s, off, len(path))
		}
		if _, seen := first[p]; !seen {
			first[p] = off
		}
		path = append(path, p)
		return true
	})
	if !completed {
		t.Fatalf("%v: ForEach stopped early without being asked", s)
	}
	if len(path) != s.Duration()+1 {
		t.Fatalf("%v: ForEach visited %d offsets, Duration() = %d", s, len(path), s.Duration())
	}
	if path[0] != s.Start() || path[len(path)-1] != s.End() {
		t.Fatalf("%v: ForEach runs %v -> %v, Start/End = %v -> %v", s, path[0], path[len(path)-1], s.Start(), s.End())
	}
	step := 1
	if s.Kind() == KindPause {
		step = 0
	}
	for i := 1; i < len(path); i++ {
		if grid.Dist(path[i-1], path[i]) != step {
			t.Fatalf("%v: offsets %d -> %d move %v -> %v", s, i-1, i, path[i-1], path[i])
		}
	}
	mid, visited := s.Duration()/2, 0
	if s.ForEach(func(off int, _ grid.Point) bool { visited++; return off < mid }) || visited != mid+1 {
		t.Fatalf("%v: ForEach asked to stop at offset %d visited %d offsets and did not report the stop", s, mid, visited)
	}
	for _, target := range append(path, targets...) {
		start, end, duration, off, hit := s.Scan(target)
		if start != s.Start() || end != s.End() || duration != s.Duration() {
			t.Fatalf("%v: Scan(%v) shape (%v, %v, %d), want (%v, %v, %d)",
				s, target, start, end, duration, s.Start(), s.End(), s.Duration())
		}
		want, wantHit := first[target]
		if hit != wantHit || (hit && off != want) {
			t.Fatalf("%v: Scan(%v) hit (%d, %v), enumeration first visits it at (%d, %v)", s, target, off, hit, want, wantHit)
		}
	}
}

// TestSegScanMatchesQueries pins Scan to ForEach enumeration across all three
// kinds, random shapes and random targets, on and off the segment. The
// engines trust this equivalence: the analytic engine answers every segment
// with Scan, the exact engine with ForEach.
func TestSegScanMatchesQueries(t *testing.T) {
	t.Parallel()

	err := quick.Check(func(ax, ay, bx, by int8, steps, from uint8, tx, ty int8) bool {
		a := grid.Point{X: int(ax), Y: int(ay)}
		b := grid.Point{X: int(bx), Y: int(by)}
		target := grid.Point{X: int(tx), Y: int(ty)}
		near := a.Add(grid.Point{X: int(tx) % 8, Y: int(ty) % 8})
		fromStep := int(from) % (int(steps) + 1)
		// The spiral nodes just outside the step range are the likeliest
		// off-by-one misses.
		before := a.Add(grid.SpiralOffset(max(fromStep-1, 0)))
		past := a.Add(grid.SpiralOffset(int(steps) + 1))
		for _, s := range []Seg{
			WalkSeg(a, b),
			SpiralSeg(a, fromStep, int(steps)),
			SpiralSearchSeg(a, int(steps)),
			PauseSeg(a, int(steps)),
		} {
			checkSeg(t, s, target, near, before, past, a, b)
		}
		return !t.Failed()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// TestSegReachBoundsEveryNode checks Reach against ForEach enumeration over
// random walks, spirals (resumed ones, fromStep > 0, included) and pauses:
// no node a segment visits lies further from the origin than its Reach. The
// analytic engine skips the hit query of every segment whose Reach is below
// the treasure's distance, so an underestimate would lose hits.
func TestSegReachBoundsEveryNode(t *testing.T) {
	t.Parallel()

	err := quick.Check(func(ax, ay, bx, by int8, steps, from uint16) bool {
		a := grid.Point{X: int(ax), Y: int(ay)}
		b := grid.Point{X: int(bx), Y: int(by)}
		toStep := int(steps) % 2000
		fromStep := int(from) % (toStep + 1)
		for _, s := range []Seg{
			WalkSeg(a, b),
			SpiralSeg(a, fromStep, toStep),
			SpiralSearchSeg(a, toStep),
			PauseSeg(a, toStep%50),
		} {
			reach := s.Reach()
			s.ForEach(func(off int, p grid.Point) bool {
				if p.L1() > reach {
					t.Errorf("%v: node %v at offset %d has L1 %d, beyond Reach %d", s, p, off, p.L1(), reach)
					return false
				}
				return true
			})
		}
		return !t.Failed()
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

// TestSegMatchesBoxedSegments checks every constructor against its
// primitive's definition, written out per kind as a position at each offset:
// a walk is the staircase grid.PathPoint(a, b, off), a spiral over steps
// [from, to] is centre + grid.SpiralOffset(from+off), a pause stays on its
// node. Seg must report that duration, those endpoints and that String,
// ForEach must enumerate those positions, and Scan must hit each target at
// its first visit in them. checkSeg pins Seg only against itself; this pins
// what each constructor builds.
func TestSegMatchesBoxedSegments(t *testing.T) {
	t.Parallel()

	type boxed struct {
		seg      Seg
		duration int
		at       func(off int) grid.Point
		str      string
	}
	prop := func(ax, ay, bx, by int8, fromRaw, lenRaw uint8, tx, ty int8) bool {
		a := grid.Point{X: int(ax) % 20, Y: int(ay) % 20}
		b := grid.Point{X: int(bx) % 20, Y: int(by) % 20}
		from := int(fromRaw) % 50
		to := from + int(lenRaw)%100
		walkLen := grid.Dist(a, b)
		for _, ref := range []boxed{
			{WalkSeg(a, b), walkLen,
				func(off int) grid.Point { return grid.PathPoint(a, b, off) },
				fmt.Sprintf("walk %v->%v (%d steps)", a, b, walkLen)},
			{SpiralSeg(a, from, to), to - from,
				func(off int) grid.Point { return a.Add(grid.SpiralOffset(from + off)) },
				fmt.Sprintf("spiral at %v steps [%d,%d]", a, from, to)},
			{SpiralSearchSeg(a, to), to,
				func(off int) grid.Point { return a.Add(grid.SpiralOffset(off)) },
				fmt.Sprintf("spiral at %v steps [0,%d]", a, to)},
			{PauseSeg(a, from), from,
				func(int) grid.Point { return a },
				fmt.Sprintf("pause at %v for %d steps", a, from)},
		} {
			s := ref.seg
			if s.Duration() != ref.duration || s.Start() != ref.at(0) || s.End() != ref.at(ref.duration) || s.String() != ref.str {
				t.Fatalf("%v: (duration %d, %v -> %v, %q), want (duration %d, %v -> %v, %q)",
					s, s.Duration(), s.Start(), s.End(), s.String(), ref.duration, ref.at(0), ref.at(ref.duration), ref.str)
			}
			first := make(map[grid.Point]int)
			for off := ref.duration; off >= 0; off-- {
				first[ref.at(off)] = off
			}
			visited := 0
			s.ForEach(func(off int, p grid.Point) bool {
				if visited > ref.duration || off != visited || p != ref.at(off) {
					t.Fatalf("%v: ForEach reported (%d, %v) at position %d of %d", s, off, p, visited, ref.duration+1)
				}
				visited++
				return true
			})
			if visited != ref.duration+1 {
				t.Fatalf("%v: ForEach visited %d offsets, want %d", s, visited, ref.duration+1)
			}
			target := grid.Point{X: int(tx) % 20, Y: int(ty) % 20}
			for _, p := range []grid.Point{a, b, target, ref.at(ref.duration / 2)} {
				want, wantHit := first[p]
				if _, _, _, off, hit := s.Scan(p); hit != wantHit || (hit && off != want) {
					t.Fatalf("%v: Scan(%v) hit (%d, %v), want (%d, %v)", s, p, off, hit, want, wantHit)
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSegmentConsistencyExhaustive runs the enumeration check over every
// small shape — all walks inside a 7x7 box, all spiral step ranges up to 60
// around two centres, pauses of every length up to 6 — against every target
// in a window covering them.
func TestSegmentConsistencyExhaustive(t *testing.T) {
	t.Parallel()

	square := func(r int) []grid.Point {
		var pts []grid.Point
		for x := -r; x <= r; x++ {
			for y := -r; y <= r; y++ {
				pts = append(pts, grid.Point{X: x, Y: y})
			}
		}
		return pts
	}
	box, window := square(3), square(6)
	for _, from := range box {
		for _, to := range box {
			checkSeg(t, WalkSeg(from, to), window...)
		}
	}
	for d := 0; d <= 6; d++ {
		checkSeg(t, PauseSeg(grid.Point{X: d, Y: -1}, d), window...)
	}
	for _, centre := range []grid.Point{grid.Origin, {X: 2, Y: -1}} {
		for lo := 0; lo <= 60; lo++ {
			for hi := lo; hi <= 60; hi++ {
				checkSeg(t, SpiralSeg(centre, lo, hi), window...)
			}
		}
	}
}

func TestWalkSegment(t *testing.T) {
	t.Parallel()

	from, to := grid.Point{X: 1, Y: 1}, grid.Point{X: 4, Y: -2}
	w := WalkSeg(from, to)
	if w.Kind() != KindWalk {
		t.Errorf("Kind = %v, want KindWalk", w.Kind())
	}
	if got, want := w.Duration(), 6; got != want {
		t.Errorf("Duration = %d, want %d", got, want)
	}
	if w.Start() != from || w.End() != to {
		t.Errorf("endpoints = %v, %v", w.Start(), w.End())
	}
	if w.String() != "walk (1,1)->(4,-2) (6 steps)" {
		t.Errorf("String = %q", w.String())
	}

	// The walk hits its own endpoints and misses a faraway node.
	if _, _, _, off, hit := w.Scan(from); !hit || off != 0 {
		t.Errorf("Scan(start) hit = (%d, %v)", off, hit)
	}
	if _, _, _, off, hit := w.Scan(to); !hit || off != w.Duration() {
		t.Errorf("Scan(end) hit = (%d, %v)", off, hit)
	}
	if _, _, _, _, hit := w.Scan(grid.Point{X: 100, Y: 100}); hit {
		t.Error("walk should not hit a faraway node")
	}
	checkSeg(t, w)
}

func TestSpiralSegment(t *testing.T) {
	t.Parallel()

	centre := grid.Point{X: -3, Y: 5}
	s := SpiralSearchSeg(centre, 48)
	if s.Kind() != KindSpiral {
		t.Errorf("Kind = %v, want KindSpiral", s.Kind())
	}
	if got := s.Duration(); got != 48 {
		t.Errorf("Duration = %d, want 48", got)
	}
	if s.Start() != centre {
		t.Errorf("fresh spiral starts at %v, want centre %v", s.Start(), centre)
	}
	if got, want := s.End(), centre.Add(grid.SpiralOffset(48)); got != want {
		t.Errorf("End = %v, want %v", got, want)
	}
	if s != SpiralSeg(centre, 0, 48) {
		t.Errorf("SpiralSearchSeg = %v, want the spiral over steps [0,48]", s)
	}
	if s.String() != "spiral at (-3,5) steps [0,48]" {
		t.Errorf("String = %q", s.String())
	}

	// A node covered by the spiral is hit exactly at its spiral index.
	if _, _, _, off, hit := s.Scan(centre.Add(grid.SpiralOffset(30))); !hit || off != 30 {
		t.Errorf("Scan hit = (%d, %v), want (30, true)", off, hit)
	}
	// A node beyond the truncation point is missed.
	if _, _, _, _, hit := s.Scan(centre.Add(grid.SpiralOffset(49))); hit {
		t.Error("spiral should miss nodes beyond its last step")
	}
	checkSeg(t, s)
}

func TestSpiralRangeSegment(t *testing.T) {
	t.Parallel()

	s := SpiralSeg(grid.Origin, 10, 25)
	if got := s.Duration(); got != 15 {
		t.Errorf("Duration = %d, want 15", got)
	}
	if got, want := s.Start(), grid.SpiralOffset(10); got != want {
		t.Errorf("Start = %v, want %v", got, want)
	}
	if got, want := s.End(), grid.SpiralOffset(25); got != want {
		t.Errorf("End = %v, want %v", got, want)
	}
	// Nodes before the range are not hit; the range's ends are hit at its
	// first and last offsets.
	if _, _, _, _, hit := s.Scan(grid.SpiralOffset(9)); hit {
		t.Error("range spiral should not hit nodes before its first step")
	}
	if _, _, _, off, hit := s.Scan(grid.SpiralOffset(10)); !hit || off != 0 {
		t.Errorf("Scan(first) hit = (%d, %v), want (0, true)", off, hit)
	}
	if _, _, _, off, hit := s.Scan(grid.SpiralOffset(25)); !hit || off != 15 {
		t.Errorf("Scan(last) hit = (%d, %v), want (15, true)", off, hit)
	}
	checkSeg(t, s)
}

func TestPauseSegment(t *testing.T) {
	t.Parallel()

	at := grid.Point{X: 3, Y: -2}
	p := PauseSeg(at, 5)
	if p.Kind() != KindPause || p.Duration() != 5 {
		t.Errorf("PauseSeg = %v (kind %v), want a 5-step pause", p, p.Kind())
	}
	if p.Start() != at || p.End() != at {
		t.Errorf("pause endpoints = %v, %v, want %v", p.Start(), p.End(), at)
	}
	if p.String() != "pause at (3,-2) for 5 steps" {
		t.Errorf("String = %q", p.String())
	}
	// A pause hits only the node it rests on, at its first offset.
	if _, _, _, off, hit := p.Scan(at); !hit || off != 0 {
		t.Errorf("Scan(own node) hit = (%d, %v), want (0, true)", off, hit)
	}
	if _, _, _, _, hit := p.Scan(grid.Origin); hit {
		t.Error("pause should not hit other nodes")
	}
	checkSeg(t, p)
}

func TestSegmentConstructorPanics(t *testing.T) {
	t.Parallel()

	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("negative fromStep", func() { SpiralSeg(grid.Origin, -1, 3) })
	assertPanics("inverted range", func() { SpiralSeg(grid.Origin, 5, 2) })

	// Clamping constructors must not panic.
	if d := SpiralSearchSeg(grid.Origin, -7).Duration(); d != 0 {
		t.Errorf("negative spiral search clamps to duration 0, got %d", d)
	}
	if d := PauseSeg(grid.Origin, -7).Duration(); d != 0 {
		t.Errorf("negative pause clamps to duration 0, got %d", d)
	}
}

// TestSegPanicsMatchConstructors checks each constructor's argument contract
// over every small argument: SpiralSeg panics exactly when its range is
// invalid (fromStep < 0 or toStep < fromStep) and otherwise covers that range,
// while SpiralSearchSeg and PauseSeg never panic and build, for a negative
// length, the same zero-length segment as for length 0.
func TestSegPanicsMatchConstructors(t *testing.T) {
	t.Parallel()

	centre := grid.Point{X: 2, Y: -3}
	panics := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return false
	}
	for from := -3; from <= 3; from++ {
		for to := -3; to <= 3; to++ {
			var s Seg
			invalid := from < 0 || to < from
			if got := panics(func() { s = SpiralSeg(centre, from, to) }); got != invalid {
				t.Errorf("SpiralSeg(%v, %d, %d) panicked = %v, want %v", centre, from, to, got, invalid)
			} else if !invalid && (s.Start() != centre.Add(grid.SpiralOffset(from)) || s.Duration() != to-from) {
				t.Errorf("SpiralSeg(%v, %d, %d) = %v, want steps [%d,%d]", centre, from, to, s, from, to)
			}
		}
	}
	for n := -3; n <= 3; n++ {
		var search, pause Seg
		if panics(func() { search = SpiralSearchSeg(centre, n) }) || panics(func() { pause = PauseSeg(centre, n) }) {
			t.Errorf("SpiralSearchSeg/PauseSeg(%v, %d) panicked, want a clamp", centre, n)
			continue
		}
		if want := SpiralSeg(centre, 0, max(n, 0)); search != want {
			t.Errorf("SpiralSearchSeg(%v, %d) = %v, want %v", centre, n, search, want)
		}
		if want := PauseSeg(centre, max(n, 0)); pause != want || pause.Duration() != max(n, 0) {
			t.Errorf("PauseSeg(%v, %d) = %v, want %v", centre, n, pause, want)
		}
	}
}

func TestSegZeroValue(t *testing.T) {
	t.Parallel()

	var s Seg
	if s.Kind() != KindWalk || s.Duration() != 0 || s.Start() != grid.Origin || s.End() != grid.Origin {
		t.Errorf("zero Seg should be a zero-length walk at the origin, got %v", s)
	}
	checkSeg(t, s, grid.Point{X: 1})
}

// TestWalkHitTimeQuick checks the walk's closed-form hit against enumeration
// on many short random walks, where the staircase corridor logic of
// grid.PathHitTime has the most corner cases.
func TestWalkHitTimeQuick(t *testing.T) {
	t.Parallel()

	f := func(ax, ay, bx, by, tx, ty int8) bool {
		a := grid.Point{X: int(ax) / 4, Y: int(ay) / 4}
		b := grid.Point{X: int(bx) / 4, Y: int(by) / 4}
		target := grid.Point{X: int(tx) / 4, Y: int(ty) / 4}
		w := WalkSeg(a, b)

		wantOff, wantHit := 0, false
		w.ForEach(func(off int, p grid.Point) bool {
			if p == target {
				wantOff, wantHit = off, true
				return false
			}
			return true
		})
		_, _, _, off, hit := w.Scan(target)
		return hit == wantHit && (!hit || off == wantOff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("walk hit property failed: %v", err)
	}
}
