package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"

	"antsearch/internal/core"
	"antsearch/internal/grid"
	"antsearch/internal/sim"
)

func TestSpeedup(t *testing.T) {
	t.Parallel()

	if got := Speedup(120, 30); got != 4 {
		t.Errorf("Speedup = %v, want 4", got)
	}
	if got := Speedup(120, 0); !math.IsInf(got, 1) {
		t.Errorf("Speedup with zero denominator = %v, want +Inf", got)
	}
}

func TestCoverageBasics(t *testing.T) {
	t.Parallel()

	c := NewCoverage(2)
	if c.totalSteps != 0 || c.DistinctNodes() != 0 || c.OverlapFraction() != 0 {
		t.Error("fresh coverage should be empty")
	}

	// Agent 0 walks east over three nodes; agent 1 re-walks two of them.
	c.Visit(0, 0, grid.Origin)
	c.Visit(0, 1, grid.Point{X: 1})
	c.Visit(0, 2, grid.Point{X: 2})
	c.Visit(1, 0, grid.Origin)
	c.Visit(1, 1, grid.Point{X: 1})

	if got := c.totalSteps; got != 5 {
		t.Errorf("total steps = %d, want 5", got)
	}
	if got := c.DistinctNodes(); got != 3 {
		t.Errorf("DistinctNodes = %d, want 3", got)
	}
	if got := len(c.perAgent[0]); got != 3 {
		t.Errorf("agent 0 distinct = %d, want 3", got)
	}
	if got := len(c.perAgent[1]); got != 2 {
		t.Errorf("agent 1 distinct = %d, want 2", got)
	}
	if got := c.MeanDistinctNodesPerAgent(); got != 2.5 {
		t.Errorf("MeanDistinctNodesPerAgent = %v, want 2.5", got)
	}
	if got := c.OverlapFraction(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("OverlapFraction = %v, want 0.4", got)
	}
	if _, ok := c.visits[grid.Origin]; !ok {
		t.Error("the origin, visited twice, is missing from the visited set")
	}

	// Out-of-range visits are ignored rather than panicking.
	c.Visit(-1, 0, grid.Point{X: 9})
	c.Visit(5, 0, grid.Point{X: 9})
	if got := c.DistinctNodes(); got != 3 {
		t.Errorf("out-of-range visits should be ignored, distinct = %d", got)
	}
}

func TestCoverageAnnuli(t *testing.T) {
	t.Parallel()

	c := NewCoverage(2)
	// Agent 0 visits nodes at distances 1, 2 and 3; agent 1 visits one node
	// at distance 2.
	c.Visit(0, 0, grid.Point{X: 1})
	c.Visit(0, 1, grid.Point{X: 2})
	c.Visit(0, 2, grid.Point{X: 3})
	c.Visit(1, 0, grid.Point{Y: 2})

	// Annulus 0 is (0, 1], annulus 1 is (1, 3].
	visited, perAgent := c.Annuli([]int{1, 3})
	if visited[1] != 3 {
		t.Errorf("visited in (1, 3] = %d, want 3 (distances 2, 2 and 3)", visited[1])
	}
	if visited[0] != 1 {
		t.Errorf("visited in (0, 1] = %d, want 1", visited[0])
	}
	// Agent 0 visited 2 nodes of (1, 3] and agent 1 one.
	if perAgent[1] != 1.5 {
		t.Errorf("mean per-agent count in (1, 3] = %v, want 1.5", perAgent[1])
	}
	if perAgent[0] != 0.5 {
		t.Errorf("mean per-agent count in (0, 1] = %v, want 0.5", perAgent[0])
	}

	// The source, nodes past the last bound and an empty annulus between
	// equal bounds count nowhere.
	c.Visit(0, 3, grid.Origin)
	c.Visit(1, 1, grid.Point{X: -4})
	visited, perAgent = c.Annuli([]int{1, 1, 3})
	if want := []int{1, 0, 3}; !slices.Equal(visited, want) {
		t.Errorf("visited with bounds [1 1 3] = %v, want %v", visited, want)
	}
	if want := []float64{0.5, 0, 1.5}; !slices.Equal(perAgent, want) {
		t.Errorf("per-agent with bounds [1 1 3] = %v, want %v", perAgent, want)
	}
}

func TestCoverageBallFraction(t *testing.T) {
	t.Parallel()

	c := NewCoverage(1)
	// Visit the whole ball of radius 1 (5 nodes).
	for _, p := range []grid.Point{grid.Origin, {X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
		c.Visit(0, 0, p)
	}
	if got := c.FractionOfBallCovered(1); got != 1 {
		t.Errorf("FractionOfBallCovered(1) = %v, want 1", got)
	}
	if got := c.FractionOfBallCovered(2); math.Abs(got-5.0/13.0) > 1e-12 {
		t.Errorf("FractionOfBallCovered(2) = %v, want 5/13", got)
	}
	if got := c.FractionOfBallCovered(-1); got != 0 {
		t.Errorf("FractionOfBallCovered(-1) = %v, want 0", got)
	}

	empty := NewCoverage(0)
	if got := empty.MeanDistinctNodesPerAgent(); got != 0 {
		t.Errorf("MeanDistinctNodesPerAgent with no agents = %v, want 0", got)
	}
	if _, perAgent := empty.Annuli([]int{5}); perAgent[0] != 0 {
		t.Errorf("per-agent annulus count with no agents = %v, want 0", perAgent[0])
	}
}

func TestCoverageCountsVisits(t *testing.T) {
	t.Parallel()

	c := NewCoverage(2)
	if len(c.visits) != 0 {
		t.Error("fresh coverage should be empty")
	}
	c.Visit(0, 0, grid.Origin)
	c.Visit(0, 1, grid.Point{X: 1})
	c.Visit(1, 0, grid.Origin)

	if got := c.visits[grid.Origin]; got != 2 {
		t.Errorf("visits of the origin = %d, want 2", got)
	}
	if got := len(c.visits); got != 2 {
		t.Errorf("distinct nodes = %d, want 2", got)
	}
}

func TestRenderMarksSourceAndTreasure(t *testing.T) {
	t.Parallel()

	c := NewCoverage(1)
	c.Visit(0, 0, grid.Origin)
	c.Visit(0, 1, grid.Point{X: 1})
	c.Visit(0, 2, grid.Point{X: 1, Y: 1})
	out := c.Render(2, grid.Point{X: 2, Y: 2})

	if !strings.Contains(out, "S") {
		t.Error("render missing source marker")
	}
	if !strings.Contains(out, "T") {
		t.Error("render missing treasure marker")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header plus 5 rows for radius 2.
	if len(lines) != 6 {
		t.Errorf("render has %d lines, want 6", len(lines))
	}
	for _, l := range lines[1:] {
		if len([]rune(l)) != 5 {
			t.Errorf("row %q has %d cells, want 5", l, len([]rune(l)))
		}
	}

	// Degenerate radius is clamped rather than panicking.
	if small := c.Render(0, grid.Origin); !strings.Contains(small, "S") {
		t.Error("clamped render missing source")
	}
}

func TestCoverageWithExactEngine(t *testing.T) {
	t.Parallel()

	alg, err := core.NewKnownK(2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoverage(2)
	inst := sim.Instance{
		Algorithm: alg,
		NumAgents: 2,
		Treasure:  grid.Point{X: 4, Y: 2},
	}
	res, err := sim.RunExact(inst, sim.Options{Seed: 3}, c.Visit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("treasure not found")
	}
	if len(c.visits) == 0 {
		t.Error("no visits recorded")
	}
	if c.visits[grid.Origin] == 0 {
		t.Error("source never recorded")
	}
	out := c.Render(6, inst.Treasure)
	if !strings.Contains(out, "heat map") {
		t.Error("missing header")
	}
}
