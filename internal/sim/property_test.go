package sim

import (
	"testing"
	"testing/quick"

	"antsearch/internal/agent"
	"antsearch/internal/core"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// randomSortieAlgorithm is a property-test algorithm: every agent performs a
// random finite schedule of sorties (walk to a random nearby node, spiral for
// a random budget, return) plus occasional pauses, derived entirely from its
// stream. It exists to drive the engine-equivalence property over a much
// wider family of trajectories than the paper's algorithms alone.
type randomSortieAlgorithm struct {
	sorties int
	radius  int
}

func (a randomSortieAlgorithm) Name() string { return "random-sorties" }

func (a randomSortieAlgorithm) NewSearcher(_ agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	remaining := a.sorties
	var pending []trajectory.Seg
	pos := grid.Origin
	return segmentFunc(func() (trajectory.Seg, bool) {
		for len(pending) == 0 {
			if remaining == 0 {
				return trajectory.Seg{}, false
			}
			remaining--
			switch rng.IntN(3) {
			case 0: // pause in place
				pending = append(pending, trajectory.PauseSeg(pos, rng.IntN(20)))
			case 1: // pure walk to a random node of the ball (no return)
				target := rng.UniformBallPoint(a.radius)
				if target != pos {
					pending = append(pending, trajectory.WalkSeg(pos, target))
					pos = target
				}
			default: // full sortie: walk out, truncated spiral, walk back
				target := rng.UniformBallPoint(a.radius)
				if target != pos {
					pending = append(pending, trajectory.WalkSeg(pos, target))
				}
				spiral := trajectory.SpiralSearchSeg(target, rng.IntN(300))
				pending = append(pending, spiral)
				if spiral.End() != pos {
					pending = append(pending, trajectory.WalkSeg(spiral.End(), pos))
				}
			}
		}
		seg := pending[0]
		pending = pending[1:]
		return seg, true
	})
}

// TestEngineEquivalenceProperty checks, over randomized schedules, treasure
// locations, agent counts and caps, that the analytic and exact engines agree
// exactly — the core guarantee that lets the experiments use the fast engine.
func TestEngineEquivalenceProperty(t *testing.T) {
	t.Parallel()

	prop := func(seed uint64, kRaw, txRaw, tyRaw uint8, capRaw uint16) bool {
		k := int(kRaw)%5 + 1
		treasure := grid.Point{X: int(txRaw)%21 - 10, Y: int(tyRaw)%21 - 10}
		if treasure == grid.Origin {
			treasure = grid.Point{X: 1}
		}
		maxTime := int(capRaw)%4000 + 50
		inst := Instance{
			Algorithm: randomSortieAlgorithm{sorties: 12, radius: 12},
			NumAgents: k,
			Treasure:  treasure,
		}
		opts := Options{Seed: seed, MaxTime: maxTime}
		a, errA := Run(inst, opts)
		b, errB := RunExact(inst, opts, nil)
		if errA != nil || errB != nil {
			return false
		}
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Errorf("engine equivalence violated: %v", err)
	}
}

// TestFirstHitLowerBoundProperty checks a simple physical invariant on the
// paper's actual algorithms: no run ever reports a hit time smaller than the
// treasure's distance (an agent cannot outrun the grid).
func TestFirstHitLowerBoundProperty(t *testing.T) {
	t.Parallel()

	harmonicRestart, err := core.NewHarmonicRestart(0.5)
	if err != nil {
		t.Fatal(err)
	}
	algorithms := []agent.Algorithm{
		must(core.NewKnownK(3)),
		must(core.NewUniform(0.5)),
		harmonicRestart,
	}
	prop := func(seed uint64, txRaw, tyRaw uint8) bool {
		treasure := grid.Point{X: int(txRaw)%31 - 15, Y: int(tyRaw)%31 - 15}
		if treasure == grid.Origin {
			treasure = grid.Point{Y: -1}
		}
		for _, alg := range algorithms {
			res, err := Run(Instance{Algorithm: alg, NumAgents: 3, Treasure: treasure},
				Options{Seed: seed})
			if err != nil || !res.Found || res.Time < treasure.L1() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("first-hit lower bound violated: %v", err)
	}
}
