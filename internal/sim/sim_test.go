package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/baseline"
	"antsearch/internal/core"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

func TestInstanceValidate(t *testing.T) {
	t.Parallel()

	valid := Instance{Algorithm: must(core.NewKnownK(1)), NumAgents: 1, Treasure: grid.Point{X: 3}}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}

	cases := []struct {
		name string
		inst Instance
	}{
		{"nil algorithm", Instance{NumAgents: 1, Treasure: grid.Point{X: 3}}},
		{"zero agents", Instance{Algorithm: must(core.NewKnownK(1)), Treasure: grid.Point{X: 3}}},
		{"treasure on source", Instance{Algorithm: must(core.NewKnownK(1)), NumAgents: 1}},
	}
	for _, tc := range cases {
		if err := tc.inst.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}

	if _, err := Run(Instance{}, Options{}); err == nil {
		t.Error("Run should propagate validation errors")
	}
	if _, err := RunExact(Instance{}, Options{}, nil); err == nil {
		t.Error("RunExact should propagate validation errors")
	}
}

func TestLowerBound(t *testing.T) {
	t.Parallel()

	if got := LowerBound(10, 4); got != 35 {
		t.Errorf("LowerBound(10, 4) = %v, want 35", got)
	}
	if got := LowerBound(10, 0); !math.IsInf(got, 1) {
		t.Errorf("LowerBound with k=0 should be +Inf, got %v", got)
	}
	if got := (TrialStats{Distance: 10, NumAgents: 4}).LowerBound(); got != 35 {
		t.Errorf("TrialStats.LowerBound = %v, want 35", got)
	}
}

// TestRunExactRejectsBeforeVisiting pins that RunExact validates the instance
// before reporting anything: a rejected instance produces zero visits, not
// the agents' time-zero visits followed by an error.
func TestRunExactRejectsBeforeVisiting(t *testing.T) {
	t.Parallel()

	cases := map[string]Instance{
		"nil algorithm":      {NumAgents: 3, Treasure: grid.Point{X: 3}},
		"treasure on source": {Algorithm: must(core.NewKnownK(3)), NumAgents: 3},
	}
	for name, inst := range cases {
		visits := 0
		_, err := RunExact(inst, Options{}, func(int, int, grid.Point) { visits++ })
		if err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
		if visits != 0 {
			t.Errorf("%s: rejected instance reported %d visits, want 0", name, visits)
		}
	}
}

func TestRunFindsTreasure(t *testing.T) {
	t.Parallel()

	algorithms := []agent.Algorithm{
		must(core.NewKnownK(4)),
		must(core.NewUniform(0.5)),
		baseline.SingleSpiral{},
	}
	for _, alg := range algorithms {
		inst := Instance{Algorithm: alg, NumAgents: 4, Treasure: grid.Point{X: 7, Y: -5}}
		res, err := Run(inst, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !res.Found {
			t.Errorf("%s: treasure not found", alg.Name())
		}
		if res.Capped {
			t.Errorf("%s: run reported capped although it found the treasure", alg.Name())
		}
		if res.Finder < 0 || res.Finder >= inst.NumAgents {
			t.Errorf("%s: finder index %d out of range", alg.Name(), res.Finder)
		}
		if res.Time < inst.Treasure.L1() {
			t.Errorf("%s: found at time %d, impossible below distance %d",
				alg.Name(), res.Time, inst.Treasure.L1())
		}
		if res.Distance != inst.Treasure.L1() {
			t.Errorf("%s: Distance = %d, want %d", alg.Name(), res.Distance, inst.Treasure.L1())
		}
		if res.CompetitiveRatio() <= 0 {
			t.Errorf("%s: non-positive competitive ratio", alg.Name())
		}
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	t.Parallel()

	inst := Instance{Algorithm: must(core.NewUniform(0.4)), NumAgents: 3, Treasure: grid.Point{X: 9, Y: 2}}
	a, err := Run(inst, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(inst, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical seeds produced different results: %+v vs %+v", a, b)
	}

	c, err := Run(inst, Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Log("different seeds produced identical results (possible but unlikely); not failing")
	}
}

func TestRunRespectsCap(t *testing.T) {
	t.Parallel()

	// A single random walker will practically never reach a treasure at
	// distance 50 within 1000 steps.
	inst := Instance{Algorithm: baseline.RandomWalk{}, NumAgents: 1, Treasure: grid.Point{X: 25, Y: 25}}
	res, err := Run(inst, Options{Seed: 3, MaxTime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("random walker found a distance-50 treasure within 1000 steps; wildly improbable")
	}
	if !res.Capped || res.Time != 1000 || res.Finder != -1 {
		t.Errorf("capped run misreported: %+v", res)
	}
}

func TestRunExactMatchesAnalytic(t *testing.T) {
	t.Parallel()

	algorithms := []agent.Algorithm{
		must(core.NewKnownK(3)),
		must(core.NewKnownK(1)),
		must(core.NewUniform(0.6)),
		must(core.NewHarmonic(0.5)),
		baseline.SingleSpiral{},
		baseline.RandomWalk{},
	}
	treasures := []grid.Point{{X: 4}, {X: -3, Y: 2}, {X: 0, Y: -6}}
	for _, alg := range algorithms {
		for _, treasure := range treasures {
			for seed := uint64(0); seed < 3; seed++ {
				inst := Instance{Algorithm: alg, NumAgents: 3, Treasure: treasure}
				opts := Options{Seed: seed, MaxTime: 200000}
				exact, err := RunExact(inst, opts, nil)
				if err != nil {
					t.Fatalf("%s exact: %v", alg.Name(), err)
				}
				analytic, err := Run(inst, opts)
				if err != nil {
					t.Fatalf("%s analytic: %v", alg.Name(), err)
				}
				if exact != analytic {
					t.Errorf("%s treasure %v seed %d: exact %+v != analytic %+v",
						alg.Name(), treasure, seed, exact, analytic)
				}
			}
		}
	}
}

func TestRunExactVisitor(t *testing.T) {
	t.Parallel()

	inst := Instance{Algorithm: must(core.NewKnownK(2)), NumAgents: 2, Treasure: grid.Point{X: 5, Y: 1}}
	type visitKey struct {
		agent int
		t     int
	}
	visits := make(map[visitKey]grid.Point)
	maxTime := make(map[int]int)
	res, err := RunExact(inst, Options{Seed: 9}, func(agentIdx, tt int, p grid.Point) {
		visits[visitKey{agentIdx, tt}] = p
		if tt > maxTime[agentIdx] {
			maxTime[agentIdx] = tt
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("treasure not found")
	}
	// Both agents were visited at time zero at the source.
	for a := 0; a < inst.NumAgents; a++ {
		if p, ok := visits[visitKey{a, 0}]; !ok || p != grid.Origin {
			t.Errorf("agent %d: expected visit of the source at time 0, got %v (ok=%v)", a, p, ok)
		}
	}
	// The finder's last visit is the treasure at the reported time.
	if p, ok := visits[visitKey{res.Finder, res.Time}]; !ok || p != inst.Treasure {
		t.Errorf("finder's visit at hit time = %v (ok=%v), want treasure %v", p, ok, inst.Treasure)
	}
	// Consecutive visits of the same agent are grid neighbours (the
	// trajectory is a legal walk).
	for a := 0; a < inst.NumAgents; a++ {
		for tt := 1; tt <= maxTime[a]; tt++ {
			prev, okPrev := visits[visitKey{a, tt - 1}]
			cur, okCur := visits[visitKey{a, tt}]
			if !okPrev || !okCur {
				t.Fatalf("agent %d: missing visit at time %d or %d", a, tt-1, tt)
			}
			if grid.Dist(prev, cur) != 1 {
				t.Fatalf("agent %d: jump from %v to %v at time %d", a, prev, cur, tt)
			}
		}
	}
}

// segmentFunc adapts a one-segment-at-a-time generator to agent.Searcher:
// every EmitSortie call appends the generator's next segment, so test
// algorithms can be written as plain closures.
type segmentFunc func() (trajectory.Seg, bool)

func (f segmentFunc) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	seg, ok := f()
	if !ok {
		return buf, false
	}
	return append(buf, seg), true
}

// teleportAlgorithm emits a discontinuous trajectory to exercise engine error
// handling.
type teleportAlgorithm struct{}

func (teleportAlgorithm) Name() string { return "teleport" }

func (teleportAlgorithm) NewSearcher(agent.Searcher, *xrand.Stream, int) agent.Searcher {
	emitted := false
	return segmentFunc(func() (trajectory.Seg, bool) {
		if emitted {
			// Starts at (5,5) although the previous segment ended at (1,0).
			return trajectory.WalkSeg(grid.Point{X: 5, Y: 5}, grid.Point{X: 6, Y: 5}), true
		}
		emitted = true
		return trajectory.WalkSeg(grid.Origin, grid.Point{X: 1}), true
	})
}

func TestEnginesRejectDiscontinuousTrajectories(t *testing.T) {
	t.Parallel()

	inst := Instance{Algorithm: teleportAlgorithm{}, NumAgents: 1, Treasure: grid.Point{X: 100}}
	if _, err := Run(inst, Options{}); !errors.Is(err, ErrDiscontinuousTrajectory) {
		t.Errorf("analytic engine: got %v, want ErrDiscontinuousTrajectory", err)
	}
	if _, err := RunExact(inst, Options{}, nil); !errors.Is(err, ErrDiscontinuousTrajectory) {
		t.Errorf("exact engine: got %v, want ErrDiscontinuousTrajectory", err)
	}
}

func TestFinishedSearchersStopCleanly(t *testing.T) {
	t.Parallel()

	// The one-shot harmonic algorithm frequently misses the treasure with a
	// single agent; the engine must report a clean "not found" without
	// hitting the cap.
	inst := Instance{Algorithm: must(core.NewHarmonic(0.8)), NumAgents: 1, Treasure: grid.Point{X: 40, Y: 40}}
	missed := false
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Run(inst, Options{Seed: seed, MaxTime: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			missed = true
			if res.Finder != -1 {
				t.Errorf("missed run reports finder %d", res.Finder)
			}
		}
	}
	if !missed {
		t.Log("harmonic agent found a distance-80 treasure in all 20 seeds; unusual but not an error")
	}
}

func TestCompetitiveRatio(t *testing.T) {
	t.Parallel()

	r := Result{Time: 200, Distance: 10, LowerBound: 20}
	if got := r.CompetitiveRatio(); got != 10 {
		t.Errorf("CompetitiveRatio = %v, want 10", got)
	}
	// A zero lower bound marks the degenerate D=0 instance; the ratio is
	// undefined there and must surface as NaN, not a silent 0 that would
	// drag aggregate means toward zero (regression for the former behaviour).
	if got := (Result{}).CompetitiveRatio(); !math.IsNaN(got) {
		t.Errorf("zero-value CompetitiveRatio = %v, want NaN", got)
	}
}

// TestMonteCarloRejectsOriginPlacement is the regression test for the D=0
// degenerate instance: a configuration that places the treasure on the source
// must be rejected up front with an actionable error, before any trial runs,
// instead of feeding zero lower bounds into the ratio aggregation.
func TestMonteCarloRejectsOriginPlacement(t *testing.T) {
	t.Parallel()

	_, err := MonteCarlo(context.Background(), TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 2,
		Distance:  0,
		Trials:    4,
		Seed:      1,
	})
	if err == nil {
		t.Fatal("an origin placement (D=0) must be rejected")
	}
	if !strings.Contains(err.Error(), "distance 0") {
		t.Errorf("error should name the degenerate distance, got: %v", err)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	t.Parallel()

	good := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 2,
		Distance:  8,
		Trials:    3,
		Seed:      1,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}

	bad := []TrialConfig{
		{NumAgents: 2, Distance: 8, Trials: 3},
		{Factory: core.Factory(), Distance: 8, Trials: 3},
		{Factory: core.Factory(), NumAgents: 2, Trials: 3},
		{Factory: core.Factory(), NumAgents: 2, Distance: -3, Trials: 3},
		{Factory: core.Factory(), NumAgents: 2, Distance: 8},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := MonteCarlo(context.Background(), cfg); err == nil {
			t.Errorf("MonteCarlo accepted bad config %d", i)
		}
	}

	nilFactory := good
	nilFactory.Factory = func(int) agent.Algorithm { return nil }
	if _, err := MonteCarlo(context.Background(), nilFactory); err == nil {
		t.Error("MonteCarlo should reject a factory that returns nil")
	}
}

func TestMonteCarloStats(t *testing.T) {
	t.Parallel()

	cfg := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 4,
		Distance:  10,
		Trials:    40,
		Seed:      7,
	}
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != 40 || st.NumAgents != 4 || st.Distance != 10 {
		t.Errorf("stats echo wrong config: %+v", st)
	}
	if st.Found != 40 || st.Capped != 0 {
		t.Errorf("known-k should always find the treasure: found %d, capped %d", st.Found, st.Capped)
	}
	if st.SuccessRate() != 1 {
		t.Errorf("SuccessRate = %v, want 1", st.SuccessRate())
	}
	if st.MeanTime() < float64(cfg.Distance) {
		t.Errorf("mean time %v below distance %d", st.MeanTime(), cfg.Distance)
	}
	if st.MedianTime() <= 0 {
		t.Errorf("median time %v", st.MedianTime())
	}
	if st.MeanRatio() <= 0 {
		t.Errorf("mean ratio %v", st.MeanRatio())
	}
	wantLB := 10.0 + 100.0/4
	if st.LowerBound() != wantLB {
		t.Errorf("LowerBound = %v, want %v", st.LowerBound(), wantLB)
	}
	if st.TimeQuantiles.N != 40 {
		t.Errorf("TimeQuantiles summarises %d entries, want 40", st.TimeQuantiles.N)
	}
	if !st.TimeQuantiles.Exact {
		t.Error("40 trials should stay within the exact sketch cap")
	}
	if st.MedianFoundTime() != st.MedianTime() {
		t.Errorf("all trials found the treasure, so found median %v should equal median %v",
			st.MedianFoundTime(), st.MedianTime())
	}
}

func TestMonteCarloDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()

	base := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 3,
		Distance:  12,
		Trials:    24,
		Seed:      99,
	}
	serial := base
	serial.Workers = 1
	parallelCfg := base
	parallelCfg.Workers = 8

	a, err := MonteCarlo(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(context.Background(), parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AllTime != b.AllTime || a.Found != b.Found || a.Ratio != b.Ratio {
		t.Errorf("results depend on worker count:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
	if !reflect.DeepEqual(a.TimeQuantiles, b.TimeQuantiles) {
		t.Errorf("time quantiles depend on worker count:\n1 worker: %+v\n8 workers: %+v",
			a.TimeQuantiles, b.TimeQuantiles)
	}
}

func TestMonteCarloResultsRaw(t *testing.T) {
	t.Parallel()

	cfg := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 2,
		Distance:  6,
		Trials:    10,
		Seed:      5,
	}
	results, err := MonteCarloResults(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results, want 10", len(results))
	}
	for i, r := range results {
		if !r.Found {
			t.Errorf("trial %d did not find the treasure", i)
		}
		if r.Distance != 6 {
			t.Errorf("trial %d distance = %d, want 6", i, r.Distance)
		}
	}
	if _, err := MonteCarloResults(context.Background(), TrialConfig{}); err == nil {
		t.Error("MonteCarloResults should reject an invalid config")
	}
}

func TestMonteCarloContextCancellation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 2,
		Distance:  64,
		Trials:    1000,
		Seed:      5,
	}
	if _, err := MonteCarlo(ctx, cfg); err == nil {
		t.Error("MonteCarlo with a cancelled context should return an error")
	}
}
