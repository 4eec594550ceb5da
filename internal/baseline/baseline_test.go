package baseline

import (
	"strings"
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// collect pulls batches until it has n segments or the schedule ends,
// returns at most n, and checks contiguity from the source.
func collect(t *testing.T, s agent.Searcher, n int) []trajectory.Seg {
	t.Helper()
	var segs []trajectory.Seg
	for len(segs) < n {
		var ok bool
		if segs, ok = s.EmitSortie(segs); !ok {
			break
		}
	}
	if len(segs) > n {
		segs = segs[:n]
	}
	pos := grid.Origin
	for i, seg := range segs {
		if seg.Start() != pos {
			t.Fatalf("segment %d (%v) starts at %v, agent is at %v", i, seg, seg.Start(), pos)
		}
		pos = seg.End()
	}
	return segs
}

func TestSingleSpiral(t *testing.T) {
	t.Parallel()

	alg := SingleSpiral{}
	if alg.Name() == "" {
		t.Error("empty name")
	}
	segs := collect(t, alg.NewSearcher(nil, xrand.NewStream(1), 0), 5)
	if len(segs) != 5 {
		t.Fatalf("single spiral should be infinite, got %d segments", len(segs))
	}
	// The concatenation is one continuous spiral: chunk boundaries line up
	// with consecutive spiral step indices.
	total := 0
	for _, seg := range segs {
		if want := trajectory.SpiralSeg(grid.Origin, total, total+seg.Duration()); seg != want {
			t.Fatalf("chunk %v, want %v", seg, want)
		}
		total += seg.Duration()
	}
	// Two agents trace identical paths: no speed-up by design.
	a := collect(t, alg.NewSearcher(nil, xrand.NewStream(1), 0), 3)
	b := collect(t, alg.NewSearcher(nil, xrand.NewStream(2), 1), 3)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("single-spiral agents diverge at segment %d", i)
		}
	}
	if SingleSpiralFactory()(7).Name() != alg.Name() {
		t.Error("factory returns a different algorithm")
	}
}

func TestKnownD(t *testing.T) {
	t.Parallel()

	if _, err := NewKnownD(0); err == nil {
		t.Error("NewKnownD(0) should fail")
	}
	const d = 9
	alg, err := NewKnownD(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(alg.Name(), "known-d") {
		t.Errorf("Name = %q", alg.Name())
	}

	// The searcher is finite and visits every node of the ring of radius d.
	segs := collect(t, alg.NewSearcher(nil, xrand.NewStream(3), 0), 10000)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	visited := make(map[grid.Point]bool)
	total := 0
	for _, seg := range segs {
		seg.ForEach(func(_ int, p grid.Point) bool {
			visited[p] = true
			return true
		})
		total += seg.Duration()
	}
	for j := 0; j < grid.RingSize(d); j++ {
		if p := grid.RingPoint(d, j); !visited[p] {
			t.Errorf("ring node %v never visited", p)
		}
	}
	// The whole sweep costs O(D): walk out (d) plus at most 2 steps per ring
	// node.
	if maxCost := d + 2*grid.RingSize(d) + 4; total > maxCost {
		t.Errorf("known-d sweep cost %d exceeds bound %d", total, maxCost)
	}

	if _, err := KnownDFactory(0); err == nil {
		t.Error("KnownDFactory(0) should fail")
	}
	f, err := KnownDFactory(d)
	if err != nil {
		t.Fatal(err)
	}
	if f(3) == nil {
		t.Error("factory returned nil")
	}
}

func TestRandomWalk(t *testing.T) {
	t.Parallel()

	alg := RandomWalk{}
	segs := collect(t, alg.NewSearcher(nil, xrand.NewStream(5), 0), 500)
	if len(segs) != 500 {
		t.Fatalf("random walk should be infinite, got %d segments", len(segs))
	}
	directions := make(map[grid.Point]int)
	for _, seg := range segs {
		if seg.Duration() != 1 {
			t.Fatalf("random walk segment has duration %d, want 1", seg.Duration())
		}
		directions[seg.End().Sub(seg.Start())]++
	}
	if len(directions) != 4 {
		t.Errorf("random walk used %d distinct directions in 500 steps, want 4", len(directions))
	}
	if RandomWalkFactory()(3).Name() != alg.Name() {
		t.Error("factory returns a different algorithm")
	}
}

func TestLevyFlight(t *testing.T) {
	t.Parallel()

	for _, bad := range []float64{1, 0.5, 3.5, -2} {
		if _, err := NewLevyFlight(bad); err == nil {
			t.Errorf("NewLevyFlight(%v) should fail", bad)
		}
	}
	alg, err := NewLevyFlight(2)
	if err != nil {
		t.Fatal(err)
	}
	if alg.mu != 2 {
		t.Errorf("mu = %v", alg.mu)
	}
	segs := collect(t, alg.NewSearcher(nil, xrand.NewStream(7), 0), 300)
	if len(segs) != 300 {
		t.Fatalf("levy flight should be infinite, got %d segments", len(segs))
	}
	// Step lengths are heavy tailed: there must be both unit-length hops and
	// occasionally much longer flights.
	short, long := 0, 0
	for _, seg := range segs {
		switch {
		case seg.Duration() <= 2:
			short++
		case seg.Duration() >= 10:
			long++
		}
	}
	if short == 0 {
		t.Error("no short flights observed")
	}
	if long == 0 {
		t.Error("no long flights observed; tail is missing")
	}
	if _, err := LevyFlightFactory(0.5); err == nil {
		t.Error("LevyFlightFactory(0.5) should fail")
	}
	f, err := LevyFlightFactory(2)
	if err != nil {
		t.Fatal(err)
	}
	if f(3) == nil {
		t.Error("factory returned nil")
	}
}

func TestSectorSweepPartitionsRings(t *testing.T) {
	t.Parallel()

	if _, err := NewSectorSweep(0); err == nil {
		t.Error("NewSectorSweep(0) should fail")
	}
	const k = 4
	alg, err := NewSectorSweep(k)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(alg.Name(), "sector-sweep") {
		t.Errorf("Name = %q", alg.Name())
	}

	// Collectively the k agents must visit every node of each small ring.
	const upTo = 8
	visited := make(map[grid.Point]bool)
	for a := 0; a < k; a++ {
		segs := collect(t, alg.NewSearcher(nil, xrand.NewStream(1, uint64(a)), a), 400)
		for _, seg := range segs {
			seg.ForEach(func(_ int, p grid.Point) bool {
				visited[p] = true
				return true
			})
		}
	}
	for r := 1; r <= upTo; r++ {
		for j := 0; j < grid.RingSize(r); j++ {
			if p := grid.RingPoint(r, j); !visited[p] {
				t.Errorf("ring %d node %v not visited by any agent", r, p)
			}
		}
	}

	// Agent indices outside [0, k) are tolerated (wrapped), never panic.
	segs := collect(t, alg.NewSearcher(nil, xrand.NewStream(2), -3), 5)
	if len(segs) == 0 {
		t.Error("wrapped agent index produced no segments")
	}

	f := SectorSweepFactory()
	if got := f(0).(*SectorSweep); got.k != 1 {
		t.Errorf("factory should clamp k to 1, got %d", got.k)
	}
	if got := f(16).(*SectorSweep); got.k != 16 {
		t.Errorf("factory should use the true k, got %d", got.k)
	}
}

func TestSectorSweepDisjointWork(t *testing.T) {
	t.Parallel()

	// Different agents sweep (mostly) different nodes on large rings: that
	// is the whole point of coordination. Count overlap on ring 40.
	const k = 8
	alg, err := NewSectorSweep(k)
	if err != nil {
		t.Fatal(err)
	}
	onRing := make(map[grid.Point]int)
	for a := 0; a < k; a++ {
		segs := collect(t, alg.NewSearcher(nil, xrand.NewStream(1, uint64(a)), a), 3000)
		seen := make(map[grid.Point]bool)
		for _, seg := range segs {
			seg.ForEach(func(_ int, p grid.Point) bool {
				if p.L1() == 40 && !seen[p] {
					seen[p] = true
					onRing[p]++
				}
				return true
			})
		}
	}
	multi := 0
	for _, count := range onRing {
		if count > 1 {
			multi++
		}
	}
	if len(onRing) == 0 {
		t.Skip("agents did not reach ring 40 within the segment budget")
	}
	if frac := float64(multi) / float64(len(onRing)); frac > 0.2 {
		t.Errorf("%.0f%% of ring-40 nodes visited by more than one agent; sectors should be nearly disjoint",
			100*frac)
	}
}
