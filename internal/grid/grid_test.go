package grid

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Test references for Dist and the ring and ball enumerations.

// chebyshevDist returns the L∞ distance between p and q.
func chebyshevDist(p, q Point) int {
	return p.Sub(q).Linf()
}

// ringIndex is the inverse of RingPoint: it returns the index j of p within
// the enumeration of its own ring, whose radius it derives from p itself.
func ringIndex(p Point) int {
	r := p.L1()
	if r == 0 {
		return 0
	}
	switch {
	case p.X > 0 && p.Y >= 0: // quadrant 0
		return p.Y
	case p.X <= 0 && p.Y > 0: // quadrant 1
		return r + (-p.X)
	case p.X < 0 && p.Y <= 0: // quadrant 2
		return 2*r + (-p.Y)
	default: // quadrant 3: p.X >= 0 && p.Y < 0
		return 3*r + p.X
	}
}

// ballIndex is the inverse of BallPoint: it maps a node of B(radius) (for any
// radius at least p.L1()) to its index in the enumeration.
func ballIndex(p Point) int {
	r := p.L1()
	if r == 0 {
		return 0
	}
	return BallSize(r-1) + ringIndex(p)
}

func TestPointArithmetic(t *testing.T) {
	t.Parallel()

	p := Point{X: 3, Y: -4}
	q := Point{X: -1, Y: 2}

	if got, want := p.Add(q), (Point{X: 2, Y: -2}); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := p.Sub(q), (Point{X: 4, Y: -6}); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := p.String(), "(3,-4)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestDistances(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name     string
		p, q     Point
		l1, linf int
	}{
		{"origin to origin", Origin, Origin, 0, 0},
		{"axis", Origin, Point{X: 5}, 5, 5},
		{"diagonal", Origin, Point{X: 3, Y: 4}, 7, 4},
		{"negative quadrant", Point{X: -2, Y: -3}, Point{X: 1, Y: 1}, 7, 4},
		{"same point", Point{X: 9, Y: 9}, Point{X: 9, Y: 9}, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := Dist(tc.p, tc.q); got != tc.l1 {
				t.Errorf("Dist(%v, %v) = %d, want %d", tc.p, tc.q, got, tc.l1)
			}
			if got := chebyshevDist(tc.p, tc.q); got != tc.linf {
				t.Errorf("chebyshevDist(%v, %v) = %d, want %d", tc.p, tc.q, got, tc.linf)
			}
		})
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	t.Parallel()

	gen := func(r *rand.Rand) Point {
		return Point{X: r.Intn(201) - 100, Y: r.Intn(201) - 100}
	}

	symmetry := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := gen(r), gen(r)
		return Dist(p, q) == Dist(q, p) && chebyshevDist(p, q) == chebyshevDist(q, p)
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Errorf("distance symmetry violated: %v", err)
	}

	triangle := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, w := gen(r), gen(r), gen(r)
		return Dist(p, w) <= Dist(p, q)+Dist(q, w)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality violated: %v", err)
	}

	dominance := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := gen(r), gen(r)
		return chebyshevDist(p, q) <= Dist(p, q) && Dist(p, q) <= 2*chebyshevDist(p, q)
	}
	if err := quick.Check(dominance, nil); err != nil {
		t.Errorf("metric dominance violated: %v", err)
	}
}

func TestDirections(t *testing.T) {
	t.Parallel()

	for d := East; d <= South; d++ {
		if got := d.Unit().L1(); got != 1 {
			t.Errorf("unit vector of %v has L1 %d, want 1", d, got)
		}
		if d.String() == "" {
			t.Errorf("direction %d has empty name", d)
		}
	}
	if got := Direction(9).String(); got != "direction(9)" {
		t.Errorf("invalid direction string = %q", got)
	}
	if got := Direction(9).Unit(); got != Origin {
		t.Errorf("invalid direction unit = %v, want origin", got)
	}
}

func TestBallSize(t *testing.T) {
	t.Parallel()

	tests := []struct {
		radius int
		want   int
	}{
		{-1, 0}, {0, 1}, {1, 5}, {2, 13}, {3, 25}, {10, 221},
	}
	for _, tc := range tests {
		if got := BallSize(tc.radius); got != tc.want {
			t.Errorf("BallSize(%d) = %d, want %d", tc.radius, got, tc.want)
		}
	}

	// BallSize must equal the brute-force count of lattice points.
	for r := 0; r <= 25; r++ {
		count := 0
		for x := -r; x <= r; x++ {
			for y := -r; y <= r; y++ {
				if abs(x)+abs(y) <= r {
					count++
				}
			}
		}
		if got := BallSize(r); got != count {
			t.Errorf("BallSize(%d) = %d, brute force = %d", r, got, count)
		}
	}
}

func TestRingSize(t *testing.T) {
	t.Parallel()

	if got := RingSize(-3); got != 0 {
		t.Errorf("RingSize(-3) = %d, want 0", got)
	}
	if got := RingSize(0); got != 1 {
		t.Errorf("RingSize(0) = %d, want 1", got)
	}
	for r := 1; r <= 30; r++ {
		if got := RingSize(r); got != 4*r {
			t.Errorf("RingSize(%d) = %d, want %d", r, got, 4*r)
		}
		if BallSize(r)-BallSize(r-1) != RingSize(r) {
			t.Errorf("ball/ring size mismatch at radius %d", r)
		}
	}
}

func TestRingPointEnumeration(t *testing.T) {
	t.Parallel()

	for r := 0; r <= 40; r++ {
		seen := make(map[Point]bool)
		for j := 0; j < RingSize(r); j++ {
			p := RingPoint(r, j)
			if p.L1() != r {
				t.Fatalf("RingPoint(%d, %d) = %v has L1 distance %d", r, j, p, p.L1())
			}
			if seen[p] {
				t.Fatalf("RingPoint(%d, %d) = %v repeated", r, j, p)
			}
			seen[p] = true
			if got := ringIndex(p); got != j {
				t.Fatalf("ringIndex(%v) = %d, want %d", p, got, j)
			}
		}
		if len(seen) != RingSize(r) {
			t.Fatalf("ring %d enumerated %d distinct points, want %d", r, len(seen), RingSize(r))
		}
	}
}

func TestRingPointPanics(t *testing.T) {
	t.Parallel()

	assertPanics(t, "negative index", func() { RingPoint(3, -1) })
	assertPanics(t, "index too large", func() { RingPoint(3, 12) })
	assertPanics(t, "radius 0 index 1", func() { RingPoint(0, 1) })
}

func TestBallPointBijection(t *testing.T) {
	t.Parallel()

	const radius = 15
	seen := make(map[Point]bool)
	for i := 0; i < BallSize(radius); i++ {
		p := BallPoint(radius, i)
		if p.L1() > radius {
			t.Fatalf("BallPoint(%d, %d) = %v outside ball", radius, i, p)
		}
		if seen[p] {
			t.Fatalf("BallPoint(%d, %d) = %v repeated", radius, i, p)
		}
		seen[p] = true
		if got := ballIndex(p); got != i {
			t.Fatalf("ballIndex(%v) = %d, want %d", p, got, i)
		}
	}
	if len(seen) != BallSize(radius) {
		t.Fatalf("ball enumeration produced %d points, want %d", len(seen), BallSize(radius))
	}
}

func TestBallPointPanics(t *testing.T) {
	t.Parallel()

	assertPanics(t, "negative index", func() { BallPoint(2, -1) })
	assertPanics(t, "index == size", func() { BallPoint(2, BallSize(2)) })
}

func TestBallIndexRoundTripQuick(t *testing.T) {
	t.Parallel()

	f := func(xRaw, yRaw int16) bool {
		p := Point{X: int(xRaw) % 500, Y: int(yRaw) % 500}
		return BallPoint(p.L1(), ballIndex(p)) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("ball index round trip failed: %v", err)
	}
}

func TestSpiralIsAWalk(t *testing.T) {
	t.Parallel()

	prev := SpiralOffset(0)
	if prev != Origin {
		t.Fatalf("spiral step 0 = %v, want origin", prev)
	}
	for i := 1; i <= 5000; i++ {
		cur := SpiralOffset(i)
		if Dist(prev, cur) != 1 {
			t.Fatalf("spiral steps %d -> %d jump from %v to %v (distance %d)",
				i-1, i, prev, cur, Dist(prev, cur))
		}
		prev = cur
	}
}

func TestSpiralVisitsAllNodesOnce(t *testing.T) {
	t.Parallel()

	const steps = 4000
	seen := make(map[Point]int)
	for i := 0; i <= steps; i++ {
		p := SpiralOffset(i)
		if prev, dup := seen[p]; dup {
			t.Fatalf("spiral visits %v at both step %d and step %d", p, prev, i)
		}
		seen[p] = i
	}
	// Every node of the Chebyshev ball of radius r is visited within
	// (2r+1)²-1 steps.
	for r := 0; r <= 30; r++ {
		limit := (2*r+1)*(2*r+1) - 1
		if limit > steps {
			break
		}
		for x := -r; x <= r; x++ {
			for y := -r; y <= r; y++ {
				idx, ok := seen[Point{X: x, Y: y}]
				if !ok || idx > limit {
					t.Fatalf("node (%d,%d) not visited within %d steps (idx %d, ok %v)",
						x, y, limit, idx, ok)
				}
			}
		}
	}
}

func TestSpiralIndexInverse(t *testing.T) {
	t.Parallel()

	for i := 0; i <= 6000; i++ {
		p := SpiralOffset(i)
		if got := SpiralIndex(p); got != i {
			t.Fatalf("SpiralIndex(SpiralOffset(%d)) = %d", i, got)
		}
	}
}

func TestSpiralIndexInverseQuick(t *testing.T) {
	t.Parallel()

	f := func(xRaw, yRaw int16) bool {
		p := Point{X: int(xRaw) % 1000, Y: int(yRaw) % 1000}
		return SpiralOffset(SpiralIndex(p)) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Errorf("spiral inverse failed: %v", err)
	}
}

func TestSpiralOffsetPanicsOnNegative(t *testing.T) {
	t.Parallel()
	assertPanics(t, "negative spiral index", func() { SpiralOffset(-1) })
}

// TestSpiralCoverage checks the paper's property of a spiral search: a spiral
// of length x visits every node within L1 distance Θ(√x). Concretely the
// spiral visits each node on its own Chebyshev ring r, at an index in
// [(2r-1)², (2r+1)²), so (2d+1)² - 1 steps cover the L1 ball of radius d (L1
// distance dominates Chebyshev distance).
func TestSpiralCoverage(t *testing.T) {
	t.Parallel()

	for x := -40; x <= 40; x++ {
		for y := -40; y <= 40; y++ {
			if err := checkSpiralRing(Point{X: x, Y: y}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkSpiralRing reports whether the spiral visits p within p's Chebyshev
// ring r = L∞(p): at an index in [(2r-1)², (2r+1)²), or at 0 for the centre.
func checkSpiralRing(p Point) error {
	r, idx := p.Linf(), SpiralIndex(p)
	lo := 0
	if r > 0 {
		lo = (2*r - 1) * (2*r - 1)
	}
	if idx < lo || idx >= (2*r+1)*(2*r+1) {
		return fmt.Errorf("SpiralIndex(%v) = %d, outside Chebyshev ring %d's steps [%d, %d)",
			p, idx, r, lo, (2*r+1)*(2*r+1))
	}
	return nil
}

// FuzzGridInverses checks the closed-form grid maps against each other on
// arbitrary inputs:
//   - SpiralIndex inverts SpiralOffset, and consecutive offsets are adjacent;
//   - SpiralIndex(p) < (2·L∞(p)+1)², the covering property (checkSpiralRing);
//   - BallPoint(r, i) lies on the L1 ring that BallSize assigns to i, the
//     ring q with BallSize(q-1) <= i < BallSize(q).
//
// Inputs are folded into ranges whose squares stay far from int overflow:
// spiral indices below 2^50, coordinates below 2^24 in absolute value.
func FuzzGridInverses(f *testing.F) {
	f.Add(uint64(0), int32(0), int32(0), uint16(0), uint64(0))
	f.Add(uint64(1), int32(1), int32(-1), uint16(1), uint64(4))
	f.Add(uint64(8), int32(-3), int32(3), uint16(2), uint64(5))
	f.Add(uint64(9), int32(5), int32(-5), uint16(10), uint64(220))
	f.Add(uint64(24), int32(0), int32(-7), uint16(1000), uint64(1<<40))
	f.Add(uint64(1)<<50-1, int32(1)<<24-1, int32(-(1<<24 - 1)), uint16(65535), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, iRaw uint64, x, y int32, r uint16, jRaw uint64) {
		i := int(iRaw % (1 << 50))
		p := SpiralOffset(i)
		if got := SpiralIndex(p); got != i {
			t.Fatalf("SpiralIndex(SpiralOffset(%d) = %v) = %d", i, p, got)
		}
		if next := SpiralOffset(i + 1); Dist(p, next) != 1 {
			t.Fatalf("spiral steps %d -> %d jump from %v to %v", i, i+1, p, next)
		}
		if err := checkSpiralRing(p); err != nil {
			t.Fatal(err)
		}

		q := Point{X: int(x % (1 << 24)), Y: int(y % (1 << 24))}
		if got := SpiralOffset(SpiralIndex(q)); got != q {
			t.Fatalf("SpiralOffset(SpiralIndex(%v)) = %v", q, got)
		}
		if err := checkSpiralRing(q); err != nil {
			t.Fatal(err)
		}

		radius := int(r)
		j := int(jRaw % uint64(BallSize(radius)))
		b := BallPoint(radius, j)
		if ring := b.L1(); ring > radius || BallSize(ring-1) > j || j >= BallSize(ring) {
			t.Fatalf("BallPoint(%d, %d) = %v on ring %d, whose indices are [%d, %d)",
				radius, j, b, ring, BallSize(ring-1), BallSize(ring))
		}
	})
}

func TestPathBasics(t *testing.T) {
	t.Parallel()

	a := Point{X: -3, Y: 2}
	b := Point{X: 4, Y: -1}
	n := PathLength(a, b)
	if n != Dist(a, b) {
		t.Fatalf("PathLength = %d, want %d", n, Dist(a, b))
	}
	if got := PathPoint(a, b, 0); got != a {
		t.Errorf("path start = %v, want %v", got, a)
	}
	if got := PathPoint(a, b, n); got != b {
		t.Errorf("path end = %v, want %v", got, b)
	}
	prev := a
	for t2 := 1; t2 <= n; t2++ {
		cur := PathPoint(a, b, t2)
		if Dist(prev, cur) != 1 {
			t.Fatalf("path step %d jumps from %v to %v", t2, prev, cur)
		}
		// The walk is monotone: distance from the start equals elapsed time,
		// distance to the goal equals remaining time.
		if Dist(a, cur) != t2 || Dist(cur, b) != n-t2 {
			t.Fatalf("path not monotone at step %d: %v", t2, cur)
		}
		prev = cur
	}
}

func TestPathPointPanics(t *testing.T) {
	t.Parallel()

	assertPanics(t, "negative step", func() { PathPoint(Origin, Point{X: 3}, -1) })
	assertPanics(t, "step beyond end", func() { PathPoint(Origin, Point{X: 3}, 4) })
}

func TestPathDegenerate(t *testing.T) {
	t.Parallel()

	p := Point{X: 5, Y: 5}
	if got := PathLength(p, p); got != 0 {
		t.Errorf("PathLength(p, p) = %d, want 0", got)
	}
	if got := PathPoint(p, p, 0); got != p {
		t.Errorf("PathPoint(p, p, 0) = %v, want %v", got, p)
	}
	if hit, ok := PathHitTime(p, p, p); !ok || hit != 0 {
		t.Errorf("PathHitTime(p, p, p) = (%d, %v), want (0, true)", hit, ok)
	}
	if _, ok := PathHitTime(p, p, Origin); ok {
		t.Error("degenerate path should not hit a different node")
	}
}

func TestPathHitTimeMatchesEnumeration(t *testing.T) {
	t.Parallel()

	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		a := Point{X: r.Intn(41) - 20, Y: r.Intn(41) - 20}
		b := Point{X: r.Intn(41) - 20, Y: r.Intn(41) - 20}
		target := Point{X: r.Intn(41) - 20, Y: r.Intn(41) - 20}

		wantStep, wantOK := -1, false
		ForEachOnPath(a, b, func(step int, p Point) bool {
			if p == target {
				wantStep, wantOK = step, true
				return false
			}
			return true
		})
		gotStep, gotOK := PathHitTime(a, b, target)
		if gotOK != wantOK || (wantOK && gotStep != wantStep) {
			t.Fatalf("PathHitTime(%v, %v, %v) = (%d, %v), enumeration says (%d, %v)",
				a, b, target, gotStep, gotOK, wantStep, wantOK)
		}
	}
}

func TestForEachOnPathEarlyStop(t *testing.T) {
	t.Parallel()

	a, b := Origin, Point{X: 10, Y: 5}
	visited := ForEachOnPath(a, b, func(step int, _ Point) bool { return step < 3 })
	if visited != 4 {
		t.Errorf("early-stopped path enumeration visited %d nodes, want 4", visited)
	}
	full := ForEachOnPath(a, b, func(int, Point) bool { return true })
	if full != PathLength(a, b)+1 {
		t.Errorf("full path enumeration visited %d nodes, want %d", full, PathLength(a, b)+1)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
