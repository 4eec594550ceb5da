package sim_test

// Engine-level tests of the fault model: analytic/exact parity under faults,
// worker-count invariance of faulty aggregates, and the edge cases the fault
// interpreter has to get right — a fully crashed colony, a stall that
// outlives the budget, and survivor accounting.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/fault"
	"antsearch/internal/grid"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
)

// faultPlans are the plans the parity tests sweep: each fault kind alone,
// both together, and a certain-stall plan that guarantees mid-segment event
// handling on every agent.
func faultPlans() map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"crash":        {CrashProb: 0.5, CrashBy: 48},
		"stall":        {StallProb: 0.5, StallBy: 48, StallDur: 24},
		"mixed":        {CrashProb: 0.25, CrashBy: 64, StallProb: 0.25, StallBy: 64, StallDur: 64},
		"stall-always": {StallProb: 1, StallBy: 16, StallDur: 40},
	}
}

// TestFaultRunMatchesRunExact checks, for every scenario in the registry and
// every fault plan, that the analytic engine (fed full batches and
// one-segment batches) and the exact cell-by-cell engine produce identical
// Results. Faults
// are interpreted by two entirely separate code paths (scanSeg's interval
// arithmetic vs the exact engine's per-cell wall clock), so agreement here is
// the strongest single check on the fault semantics.
func TestFaultRunMatchesRunExact(t *testing.T) {
	t.Parallel()

	treasures := []grid.Point{{X: 4, Y: 1}, {X: -3, Y: -2}}
	for name, alg := range registryAlgorithms(t, false) {
		for planName, plan := range faultPlans() {
			for _, treasure := range treasures {
				for _, seed := range []uint64{3, 11} {
					inst := sim.Instance{Algorithm: alg, NumAgents: 4, Treasure: treasure, Faults: plan}
					opts := sim.Options{Seed: seed, MaxTime: 1 << 12}

					batch, err := sim.Run(inst, opts)
					if err != nil {
						t.Fatalf("%s/%s treasure=%v seed=%d: batch run: %v", name, planName, treasure, seed, err)
					}

					oneInst := inst
					oneInst.Algorithm = oneSegmentAlgorithm{inner: alg}
					one, err := sim.Run(oneInst, opts)
					if err != nil {
						t.Fatalf("%s/%s treasure=%v seed=%d: one-segment run: %v", name, planName, treasure, seed, err)
					}
					if !reflect.DeepEqual(batch, one) {
						t.Errorf("%s/%s treasure=%v seed=%d: full batches differ from one-segment batches:\n batch %+v\n one   %+v",
							name, planName, treasure, seed, batch, one)
					}

					exact, err := sim.RunExact(inst, opts, nil)
					if err != nil {
						t.Fatalf("%s/%s treasure=%v seed=%d: exact run: %v", name, planName, treasure, seed, err)
					}
					if !reflect.DeepEqual(batch, exact) {
						t.Errorf("%s/%s treasure=%v seed=%d: batch path differs from exact engine:\n batch %+v\n exact %+v",
							name, planName, treasure, seed, batch, exact)
					}
				}
			}
		}
	}
}

// faultyTrialConfig builds the shared faulty Monte-Carlo configuration of the
// invariance tests.
func faultyTrialConfig(t *testing.T, trials int, plan *fault.Plan) sim.TrialConfig {
	t.Helper()
	alg, err := scenario.Algorithm("known-k", scenario.DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return sim.TrialConfig{
		Factory:   func(int) agent.Algorithm { return alg },
		NumAgents: 4,
		Distance:  8,
		Trials:    trials,
		Seed:      7,
		MaxTime:   1 << 16,
		Faults:    plan,
	}
}

// TestFaultWorkerInvariance asserts that faulty aggregates are bit-identical
// across worker counts: fault schedules derive from (seed, trial, agent)
// alone, so sharding must not be observable.
func TestFaultWorkerInvariance(t *testing.T) {
	t.Parallel()

	ctx := context.Background()
	plan := &fault.Plan{CrashProb: 0.25, CrashBy: 64, StallProb: 0.25, StallBy: 64, StallDur: 64}
	var baseline sim.TrialStats
	for i, workers := range []int{1, 2, 5} {
		cfg := faultyTrialConfig(t, 96, plan)
		cfg.Workers = workers
		st, err := sim.MonteCarlo(ctx, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			baseline = st
			continue
		}
		if !reflect.DeepEqual(st, baseline) {
			t.Errorf("workers=%d: faulty aggregate differs from workers=1:\n got  %+v\n want %+v",
				workers, st, baseline)
		}
	}
}

// TestAllAgentsCrashed pins the fully dead colony: with every agent crashing
// at time zero, no cell is ever visited, the trial runs to the cap, and the
// survivor count is zero. Both engines must agree.
func TestAllAgentsCrashed(t *testing.T) {
	t.Parallel()

	alg, err := scenario.Algorithm("known-k", scenario.DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	inst := sim.Instance{
		Algorithm: alg,
		NumAgents: 4,
		Treasure:  grid.Point{X: 3, Y: 0},
		Faults:    &fault.Plan{CrashProb: 1, CrashBy: 1}, // crash at t=0, certainly
	}
	opts := sim.Options{Seed: 5, MaxTime: 1 << 10}
	for engine, run := range map[string]func() (sim.Result, error){
		"analytic": func() (sim.Result, error) { return sim.Run(inst, opts) },
		"exact":    func() (sim.Result, error) { return sim.RunExact(inst, opts, nil) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Found || res.Finder != -1 {
			t.Errorf("%s: dead colony found the treasure: %+v", engine, res)
		}
		if !res.Capped || res.Time != 1<<10 {
			t.Errorf("%s: dead colony should run to the cap 1024, got Capped=%v Time=%d", engine, res.Capped, res.Time)
		}
		if res.Survivors != 0 {
			t.Errorf("%s: dead colony reports %d survivors", engine, res.Survivors)
		}
		if r := res.SurvivorCompetitiveRatio(); !math.IsNaN(r) {
			t.Errorf("%s: survivor ratio with no survivors = %v, want NaN", engine, r)
		}
	}

	// The Monte-Carlo path aggregates the same trials: all capped, none
	// found, zero survivors throughout.
	st, err := sim.MonteCarlo(context.Background(), faultyTrialConfig(t, 16, &fault.Plan{CrashProb: 1, CrashBy: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Found != 0 || st.Capped != 16 {
		t.Errorf("dead colony aggregate: Found=%d Capped=%d, want 0/16", st.Found, st.Capped)
	}
	if st.MeanSurvivors() != 0 {
		t.Errorf("dead colony aggregate: mean survivors %v, want 0", st.MeanSurvivors())
	}
}

// TestStallPastBudgetTruncated pins the over-long stall: an agent that stalls
// at time zero for longer than the whole budget performs no action, the trial
// parks at the cap, and the agent still counts as a survivor (stalled, not
// dead).
func TestStallPastBudgetTruncated(t *testing.T) {
	t.Parallel()

	alg, err := scenario.Algorithm("known-k", scenario.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := sim.Instance{
		Algorithm: alg,
		NumAgents: 1,
		Treasure:  grid.Point{X: 2, Y: 0},
		// StallDur far beyond the budget: the drawn length lands in
		// [budget, 2*budget] with overwhelming probability; StallBy 1 pins
		// the start to t=0, and the seed below draws a length > budget.
		Faults: &fault.Plan{StallProb: 1, StallBy: 1, StallDur: 1 << 40},
	}
	opts := sim.Options{Seed: 5, MaxTime: 1 << 10}
	for engine, run := range map[string]func() (sim.Result, error){
		"analytic": func() (sim.Result, error) { return sim.Run(inst, opts) },
		"exact":    func() (sim.Result, error) { return sim.RunExact(inst, opts, nil) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Found {
			t.Errorf("%s: agent stalled past the budget still found the treasure: %+v", engine, res)
		}
		if !res.Capped || res.Time != 1<<10 {
			t.Errorf("%s: over-long stall should park at the cap 1024, got Capped=%v Time=%d", engine, res.Capped, res.Time)
		}
		if res.Survivors != 1 {
			t.Errorf("%s: stalled agent is alive, yet Survivors=%d", engine, res.Survivors)
		}
	}
}

// TestFaultFreeSurvivors pins the fault-free contract: without a plan (nil or
// zero), Survivors is NumAgents and the survivor ratio coincides with the
// plain competitive ratio.
func TestFaultFreeSurvivors(t *testing.T) {
	t.Parallel()

	alg, err := scenario.Algorithm("known-k", scenario.DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*fault.Plan{"nil": nil, "zero": {}} {
		inst := sim.Instance{Algorithm: alg, NumAgents: 4, Treasure: grid.Point{X: 4, Y: 1}, Faults: plan}
		res, err := sim.Run(inst, sim.Options{Seed: 3, MaxTime: 1 << 12})
		if err != nil {
			t.Fatalf("%s plan: %v", name, err)
		}
		if res.Survivors != 4 {
			t.Errorf("%s plan: Survivors=%d, want NumAgents=4", name, res.Survivors)
		}
		if !res.Found {
			t.Fatalf("%s plan: expected a find at D=5 under a 4096 budget", name)
		}
		if got, want := res.SurvivorCompetitiveRatio(), res.CompetitiveRatio(); got != want {
			t.Errorf("%s plan: survivor ratio %v differs from plain ratio %v with all agents alive", name, got, want)
		}
	}
}

// TestFoundImpliesSurvivor pins the semantic link between finding and
// surviving: a treasure hit at Time means the finder acted at Time, so its
// crash lies strictly later and Survivors >= 1.
func TestFoundImpliesSurvivor(t *testing.T) {
	t.Parallel()

	ctx := context.Background()
	cfg := faultyTrialConfig(t, 64, &fault.Plan{CrashProb: 0.75, CrashBy: 32})
	results, err := sim.MonteCarloResults(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Found && r.Survivors < 1 {
			t.Errorf("trial %d: Found with %d survivors — the finder must outlive its own hit: %+v", i, r.Survivors, r)
		}
	}
}
