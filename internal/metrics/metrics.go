// Package metrics computes the derived quantities the experiments report on
// top of raw hit times: speed-up curves, and the coverage/overlap statistics
// and visit heat maps obtained by attaching a tracker to the exact simulation
// engine.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"antsearch/internal/grid"
)

// Speedup returns T1/Tk, the speed-up of using k agents over one agent.
func Speedup(t1, tk float64) float64 {
	if tk <= 0 {
		return math.Inf(1)
	}
	return t1 / tk
}

// Coverage records the cells visited during an exact simulation. Attach its
// Visit method to sim.RunExact. The zero value is not ready for use; call
// NewCoverage.
type Coverage struct {
	// perAgent[i] is the set of distinct nodes agent i visited.
	perAgent []map[grid.Point]struct{}
	// visits counts, for every node, how many times any agent stood on it.
	visits map[grid.Point]int
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
		visits:   make(map[grid.Point]int),
	}
}

// Visit records one observation; it has the signature sim.RunExact expects
// for its visitor.
func (c *Coverage) Visit(agentIdx, _ int, p grid.Point) {
	if agentIdx < 0 || agentIdx >= len(c.perAgent) {
		return
	}
	c.perAgent[agentIdx][p] = struct{}{}
	c.visits[p]++
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

// Annuli counts the visited nodes in each annulus of the source in one pass
// over the record. Annulus i holds the nodes at L1 distance in
// (bounds[i-1], bounds[i]], with an implicit 0 before bounds[0]; bounds must
// be non-decreasing. visited[i] is the number of distinct nodes of annulus i
// that at least one agent visited, and perAgent[i] the mean, over agents, of
// the number of distinct nodes of annulus i each agent visited (0 with no
// agents).
func (c *Coverage) Annuli(bounds []int) (visited []int, perAgent []float64) {
	// annulus returns p's annulus, or len(bounds), a slot outside every
	// annulus, for the source and for nodes past the last bound.
	annulus := func(p grid.Point) int {
		if d := p.L1(); d > 0 {
			return sort.SearchInts(bounds, d)
		}
		return len(bounds)
	}
	visited = make([]int, len(bounds)+1)
	for p := range c.visits {
		visited[annulus(p)]++
	}
	charged := make([]int, len(bounds)+1)
	for _, set := range c.perAgent {
		for p := range set {
			charged[annulus(p)]++
		}
	}
	perAgent = make([]float64, len(bounds))
	for i := range perAgent {
		perAgent[i] = float64(charged[i]) / float64(max(len(c.perAgent), 1))
	}
	return visited[:len(bounds)], perAgent
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

// heatRunes maps visit intensity to characters, from lightest to heaviest.
var heatRunes = []rune{'.', ':', '-', '=', '+', '*', '#', '%', '@'}

// Render draws an ASCII heat map of the visits, clipped to the given
// half-width around the source (the map covers x, y in [-radius, radius]).
// The source is marked 'S' and the treasure (if inside the clip) 'T';
// unvisited cells are blank.
func (c *Coverage) Render(radius int, treasure grid.Point) string {
	if radius < 1 {
		radius = 1
	}
	maxVisits := 0
	for _, n := range c.visits {
		if n > maxVisits {
			maxVisits = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "visit heat map (radius %d, max visits %d)\n", radius, maxVisits)
	for y := radius; y >= -radius; y-- {
		for x := -radius; x <= radius; x++ {
			p := grid.Point{X: x, Y: y}
			switch {
			case p == grid.Origin:
				b.WriteRune('S')
			case p == treasure:
				b.WriteRune('T')
			case c.visits[p] == 0:
				b.WriteRune(' ')
			default:
				// A count of at most maxVisits keeps the index in range.
				b.WriteRune(heatRunes[(len(heatRunes)-1)*(c.visits[p]-1)/maxVisits])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
