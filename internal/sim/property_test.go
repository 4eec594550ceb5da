package sim

import (
	"reflect"
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
// The exact engine scans every segment, so it is also the oracle for the
// analytic engine's skip of segments that cannot reach the treasure: with up
// to 16 agents and treasures out to L1 distance 30, beyond most of the
// schedules' reach, instances with skipped segments and instances where
// several agents first reach the treasure at the answer time both occur.
func TestEngineEquivalenceProperty(t *testing.T) {
	t.Parallel()

	prop := func(seed uint64, kRaw, txRaw, tyRaw uint8, capRaw uint16) bool {
		k := int(kRaw)%16 + 1
		// Near treasures make ties likely, far ones make most segments
		// skippable.
		span := [...]int{3, 7, 15}[int(kRaw/16)%3]
		treasure := grid.Point{X: int(txRaw)%(2*span+1) - span, Y: int(tyRaw)%(2*span+1) - span}
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
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
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

// soloAlgorithm runs agent as of a multi-agent instance on its own: the one
// agent of a NumAgents=1 run gets that agent's stream and index, so the run
// reports the time at which that agent alone first reaches the treasure.
type soloAlgorithm struct {
	inner agent.Algorithm
	seed  uint64
	as    int
}

func (a soloAlgorithm) Name() string { return a.inner.Name() }

func (a soloAlgorithm) NewSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	rng.Reset(a.seed, uint64(a.as))
	return a.inner.NewSearcher(prev, rng, a.as)
}

// soloTimes returns each agent's solo first-hit time in a fault-free
// instance (the cap if it never hits).
func soloTimes(t *testing.T, in Instance, opts Options) []int {
	t.Helper()
	times := make([]int, in.NumAgents)
	for a := range times {
		solo := in
		solo.Algorithm = soloAlgorithm{inner: in.Algorithm, seed: opts.Seed, as: a}
		solo.NumAgents = 1
		r, err := Run(solo, opts)
		if err != nil {
			t.Fatal(err)
		}
		times[a] = r.Time
	}
	return times
}

// TestFinderTieGoesToFirstScannedSegment pins Result.Finder on a tie: agents
// 0 and 2 of this known-k instance both first reach the treasure at t=2,
// agent 2 on its first walk, which starts at t=0, and agent 0 on the spiral
// after its first walk, which starts at t=1. The engines scan segments that
// could hit in (segment start, agent index) order and the budget is
// exclusive, so the first segment scanned at the answer time wins: the
// finder is agent 2, not the smallest tied index.
func TestFinderTieGoesToFirstScannedSegment(t *testing.T) {
	t.Parallel()

	in := Instance{Algorithm: must(core.NewKnownK(4)), NumAgents: 4, Treasure: grid.Point{X: 1, Y: -1}}
	opts := Options{Seed: 32}
	res, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RunExact(in, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact != res {
		t.Fatalf("engines disagree: Run %+v, RunExact %+v", res, exact)
	}
	var tied []int
	for a, at := range soloTimes(t, in, opts) {
		if at < res.Time {
			t.Fatalf("agent %d alone arrives at %d, before the answer %d", a, at, res.Time)
		}
		if at == res.Time {
			tied = append(tied, a)
		}
	}
	if !res.Found || res.Time != 2 || !reflect.DeepEqual(tied, []int{0, 2}) || res.Finder != 2 {
		t.Fatalf("got %+v with agents %v arriving at the answer time; want agents [0 2] tied at t=2 and finder 2", res, tied)
	}
}
