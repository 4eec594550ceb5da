package baseline

import (
	"fmt"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// SectorSweep is a centrally coordinated, non-identical-agent baseline in the
// spirit of López-Ortiz and Sweet's parallel lattice search: agent i of k is
// assigned the i-th angular sector and sweeps its portion of ring 1, then
// ring 2, and so on. Because the agents partition the plane they achieve the
// optimal O(D + D²/k) time deterministically — but only by violating the
// paper's core modelling assumptions (the agents are distinguishable and the
// assignment is central coordination). The experiments use it to show what
// that extra power is worth.
type SectorSweep struct {
	k int
}

// NewSectorSweep returns the coordinated sweep for k agents.
func NewSectorSweep(k int) (*SectorSweep, error) {
	if err := agent.Validate("k", k, 1); err != nil {
		return nil, fmt.Errorf("sector-sweep: %w", err)
	}
	return &SectorSweep{k: k}, nil
}

var _ agent.Algorithm = (*SectorSweep)(nil)

// Name implements agent.Algorithm.
func (a *SectorSweep) Name() string { return fmt.Sprintf("sector-sweep(k=%d)", a.k) }

// arcBounds returns the half-open range [lo, hi) of ring indices of ring r
// assigned to the agent with the given index.
func (a *SectorSweep) arcBounds(agentIndex, r int) (lo, hi int) {
	size := grid.RingSize(r)
	lo = agentIndex * size / a.k
	hi = (agentIndex + 1) * size / a.k
	return lo, hi
}

// sectorSweepSearcher sweeps the agent's arc of ring 1, then ring 2, and so
// on.
type sectorSweepSearcher struct {
	alg        *SectorSweep
	agentIndex int
	pos        grid.Point
	r          int // current ring (0 = not started)
	arcNext    int // next ring index within the current ring's arc
	arcEnd     int // end of the current ring's arc
}

// arc returns the walk to the next node of the agent's sweep.
func (s *sectorSweepSearcher) arc() trajectory.Seg {
	for {
		if s.r == 0 || s.arcNext >= s.arcEnd {
			// Advance to the next ring that has a non-empty arc for this
			// agent. Rings smaller than k leave some agents idle on that
			// ring; they skip ahead to the first ring wide enough.
			s.r++
			lo, hi := s.alg.arcBounds(s.agentIndex, s.r)
			if lo >= hi {
				continue
			}
			s.arcNext, s.arcEnd = lo, hi
		}
		next := grid.RingPoint(s.r, s.arcNext%grid.RingSize(s.r))
		s.arcNext++
		if next == s.pos {
			continue
		}
		seg := trajectory.WalkSeg(s.pos, next)
		s.pos = next
		return seg
	}
}

// sectorSweepBatch is the number of arc segments EmitSortie appends per call.
const sectorSweepBatch = 32

// EmitSortie implements agent.Searcher. The sweep is deterministic, so
// batching changes nothing but the pull granularity.
func (s *sectorSweepSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	for i := 0; i < sectorSweepBatch; i++ {
		buf = append(buf, s.arc())
	}
	return buf, true
}

// NewSearcher implements agent.Algorithm. Unlike the paper's algorithms the
// searcher depends on the agent index: that is precisely the coordination
// this baseline is allowed to use.
func (a *SectorSweep) NewSearcher(prev agent.Searcher, _ *xrand.Stream, agentIndex int) agent.Searcher {
	if agentIndex < 0 || agentIndex >= a.k {
		agentIndex = ((agentIndex % a.k) + a.k) % a.k
	}
	return agent.ReuseOrNew(prev, sectorSweepSearcher{alg: a, agentIndex: agentIndex})
}

// SectorSweepFactory returns a Factory that builds the coordinated sweep with
// the true number of agents — full knowledge plus central coordination.
func SectorSweepFactory() agent.Factory {
	return func(k int) agent.Algorithm {
		if k < 1 {
			k = 1
		}
		return &SectorSweep{k: k}
	}
}
