package metrics

import (
	"math"
	"testing"

	"antsearch/internal/grid"
)

func TestLowerBoundAndRatio(t *testing.T) {
	t.Parallel()

	if got := LowerBound(10, 4); got != 35 {
		t.Errorf("LowerBound(10, 4) = %v, want 35", got)
	}
	if got := LowerBound(10, 0); !math.IsInf(got, 1) {
		t.Errorf("LowerBound with k=0 should be +Inf, got %v", got)
	}
}

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

	if got := c.VisitedInAnnulus(1, 3); got != 3 {
		t.Errorf("VisitedInAnnulus(1, 3) = %d, want 3 (distances 2, 2 and 3)", got)
	}
	if got := c.VisitedInAnnulus(0, 1); got != 1 {
		t.Errorf("VisitedInAnnulus(0, 1) = %d, want 1", got)
	}
	if got := c.AgentVisitedInAnnulus(0, 1, 3); got != 2 {
		t.Errorf("AgentVisitedInAnnulus(0, 1, 3) = %d, want 2", got)
	}
	if got := c.AgentVisitedInAnnulus(1, 1, 3); got != 1 {
		t.Errorf("AgentVisitedInAnnulus(1, 1, 3) = %d, want 1", got)
	}
	if got := c.AgentVisitedInAnnulus(9, 0, 10); got != 0 {
		t.Errorf("out-of-range agent annulus count = %d, want 0", got)
	}
	if got := c.MeanAgentVisitedInAnnulus(1, 3); got != 1.5 {
		t.Errorf("MeanAgentVisitedInAnnulus = %v, want 1.5", got)
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
	if got := empty.MeanAgentVisitedInAnnulus(0, 5); got != 0 {
		t.Errorf("MeanAgentVisitedInAnnulus with no agents = %v, want 0", got)
	}
}
