// Package metrics computes the derived quantities the experiments report on
// top of raw hit times: the D + D²/k lower bound, speed-up curves, and the
// coverage/overlap statistics obtained by attaching a tracker to the exact
// simulation engine.
package metrics

import (
	"math"

	"antsearch/internal/grid"
)

// LowerBound returns the trivial lower bound D + D²/k on the expected running
// time (Section 2).
func LowerBound(d, k int) float64 {
	if k < 1 {
		return math.Inf(1)
	}
	fd := float64(d)
	return fd + fd*fd/float64(k)
}

// Speedup returns T1/Tk, the speed-up of using k agents over one agent.
func Speedup(t1, tk float64) float64 {
	if tk <= 0 {
		return math.Inf(1)
	}
	return t1 / tk
}

// Coverage accumulates the cells visited during an exact simulation. Attach
// its Visit method to sim.RunExact. The zero value is not ready for use; call
// NewCoverage.
type Coverage struct {
	// perAgent[i] is the set of distinct nodes agent i visited.
	perAgent []map[grid.Point]struct{}
	// visits is the set of distinct nodes any agent visited.
	visits map[grid.Point]struct{}
	// totalSteps is the total number of (agent, time) pairs observed.
	totalSteps int
}

// NewCoverage returns a tracker for the given number of agents.
func NewCoverage(numAgents int) *Coverage {
	perAgent := make([]map[grid.Point]struct{}, numAgents)
	for i := range perAgent {
		perAgent[i] = make(map[grid.Point]struct{})
	}
	return &Coverage{
		perAgent: perAgent,
		visits:   make(map[grid.Point]struct{}),
	}
}

// Visit records one observation; it has the signature sim.RunExact expects
// for its visitor.
func (c *Coverage) Visit(agentIdx, _ int, p grid.Point) {
	if agentIdx < 0 || agentIdx >= len(c.perAgent) {
		return
	}
	c.perAgent[agentIdx][p] = struct{}{}
	c.visits[p] = struct{}{}
	c.totalSteps++
}

// DistinctNodes returns the number of distinct nodes visited by at least one
// agent.
func (c *Coverage) DistinctNodes() int { return len(c.visits) }

// MeanDistinctNodesPerAgent returns the average, over agents, of the number
// of distinct nodes each visited. This is the quantity the lower-bound proofs
// of Theorems 4.1 and 4.2 reason about.
func (c *Coverage) MeanDistinctNodesPerAgent() float64 {
	if len(c.perAgent) == 0 {
		return 0
	}
	sum := 0
	for _, set := range c.perAgent {
		sum += len(set)
	}
	return float64(sum) / float64(len(c.perAgent))
}

// OverlapFraction returns the fraction of node visits that were redundant:
// 1 − distinct/total. It captures the crowding cost discussed in the paper's
// introduction — time spent re-searching cells that some agent (possibly the
// same one) already searched.
func (c *Coverage) OverlapFraction() float64 {
	if c.totalSteps == 0 {
		return 0
	}
	return 1 - float64(len(c.visits))/float64(c.totalSteps)
}

// VisitedInAnnulus returns how many distinct nodes with L1 distance in
// (inner, outer] from the source were visited by at least one agent.
func (c *Coverage) VisitedInAnnulus(inner, outer int) int {
	count := 0
	for p := range c.visits {
		if d := p.L1(); d > inner && d <= outer {
			count++
		}
	}
	return count
}

// AgentVisitedInAnnulus returns how many distinct nodes with L1 distance in
// (inner, outer] the given agent visited.
func (c *Coverage) AgentVisitedInAnnulus(agentIdx, inner, outer int) int {
	if agentIdx < 0 || agentIdx >= len(c.perAgent) {
		return 0
	}
	count := 0
	for p := range c.perAgent[agentIdx] {
		if d := p.L1(); d > inner && d <= outer {
			count++
		}
	}
	return count
}

// MeanAgentVisitedInAnnulus averages AgentVisitedInAnnulus over all agents.
func (c *Coverage) MeanAgentVisitedInAnnulus(inner, outer int) float64 {
	if len(c.perAgent) == 0 {
		return 0
	}
	sum := 0
	for i := range c.perAgent {
		sum += c.AgentVisitedInAnnulus(i, inner, outer)
	}
	return float64(sum) / float64(len(c.perAgent))
}

// FractionOfBallCovered returns the fraction of the ball B(radius) visited by
// at least one agent.
func (c *Coverage) FractionOfBallCovered(radius int) float64 {
	size := grid.BallSize(radius)
	if size == 0 {
		return 0
	}
	count := 0
	for p := range c.visits {
		if p.L1() <= radius {
			count++
		}
	}
	return float64(count) / float64(size)
}
