package sim

// Golden determinism for the fault model: per-trial outcomes (including the
// survivor count) and headline aggregates of faulty Monte-Carlo runs are
// pinned to testdata/golden_faults.json. The file is separate from
// golden_trials.json on purpose: fault-free runs must stay byte-identical to
// the pre-fault goldens, so that file is never regenerated for fault work.
//
// Regenerate (only when an output change is intentional and understood) with:
//
//	go test ./internal/sim -run TestGoldenFaultDeterminism -update-golden

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"antsearch/internal/core"
	"antsearch/internal/fault"
)

// goldenFaultTrial is the per-trial record the fault golden file pins. It
// extends goldenTrial with the survivor count, the quantity the fault model
// adds to a Result.
type goldenFaultTrial struct {
	Found     bool `json:"found"`
	Time      int  `json:"time"`
	Finder    int  `json:"finder"`
	Survivors int  `json:"survivors"`
}

// goldenFaultAggregate pins the aggregates, covering the survivor summaries
// and the k′-rebased ratio alongside the usual headline numbers.
type goldenFaultAggregate struct {
	Found             int     `json:"found"`
	Capped            int     `json:"capped"`
	MeanTime          float64 `json:"mean_time"`
	MeanSurvivors     float64 `json:"mean_survivors"`
	MeanSurvivorRatio float64 `json:"mean_survivor_ratio"`
}

// goldenFaultCase is one configuration's pinned outputs.
type goldenFaultCase struct {
	Name      string               `json:"name"`
	Trials    []goldenFaultTrial   `json:"trials"`
	Aggregate goldenFaultAggregate `json:"aggregate"`
}

// goldenFaultConfigs returns the fixed faulty configurations the golden file
// covers: crash-only, stall-only and mixed plans over the analytic fast path,
// plus a restarting algorithm (whose long sorties interact with mid-sortie
// faults) under the mixed plan. Every case caps MaxTime so the all-crashed
// tail stays cheap.
func goldenFaultConfigs(t *testing.T) []struct {
	name string
	cfg  TrialConfig
} {
	t.Helper()
	restartFactory, err := core.HarmonicRestartFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	uniformFactory, err := core.UniformFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	crashOnly := &fault.Plan{CrashProb: 0.5, CrashBy: 64}
	stallOnly := &fault.Plan{StallProb: 0.5, StallBy: 64, StallDur: 32}
	mixed := &fault.Plan{CrashProb: 0.25, CrashBy: 64, StallProb: 0.25, StallBy: 64, StallDur: 64}
	return []struct {
		name string
		cfg  TrialConfig
	}{
		{"knownk-crash", TrialConfig{
			Factory: core.Factory(), NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7, MaxTime: 1 << 16, Faults: crashOnly,
		}},
		{"knownk-stall", TrialConfig{
			Factory: core.Factory(), NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7, MaxTime: 1 << 16, Faults: stallOnly,
		}},
		{"uniform-mixed", TrialConfig{
			Factory: uniformFactory, NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7, MaxTime: 1 << 16, Faults: mixed,
		}},
		{"harmonic-restart-mixed", TrialConfig{
			Factory: restartFactory, NumAgents: 8, Distance: 4,
			Trials: 64, Seed: 7, MaxTime: 1 << 20, Faults: mixed,
		}},
	}
}

const goldenFaultPath = "testdata/golden_faults.json"

// TestGoldenFaultDeterminism asserts that faulty Monte-Carlo runs — trial
// results and shard-merged aggregates alike — are byte-identical to the
// recorded outputs.
func TestGoldenFaultDeterminism(t *testing.T) {
	t.Parallel()

	ctx := context.Background()
	var got []goldenFaultCase
	for _, c := range goldenFaultConfigs(t) {
		results, err := MonteCarloResults(ctx, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		trials := make([]goldenFaultTrial, len(results))
		for i, r := range results {
			trials[i] = goldenFaultTrial{Found: r.Found, Time: r.Time, Finder: r.Finder, Survivors: r.Survivors}
		}
		st, err := MonteCarlo(ctx, c.cfg)
		if err != nil {
			t.Fatalf("%s aggregate: %v", c.name, err)
		}
		got = append(got, goldenFaultCase{
			Name:   c.name,
			Trials: trials,
			Aggregate: goldenFaultAggregate{
				Found:             st.Found,
				Capped:            st.Capped,
				MeanTime:          st.MeanTime(),
				MeanSurvivors:     st.MeanSurvivors(),
				MeanSurvivorRatio: st.MeanSurvivorRatio(),
			},
		})
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFaultPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFaultPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFaultPath)
		return
	}

	data, err := os.ReadFile(goldenFaultPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenFaultCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, test produced %d (regenerate with -update-golden)",
			len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name {
			t.Fatalf("case %d: name %q, golden %q", i, g.Name, w.Name)
		}
		if g.Aggregate != w.Aggregate {
			t.Errorf("%s: aggregate %+v, golden %+v", g.Name, g.Aggregate, w.Aggregate)
		}
		if len(g.Trials) != len(w.Trials) {
			t.Errorf("%s: %d trials, golden %d", g.Name, len(g.Trials), len(w.Trials))
			continue
		}
		for j := range w.Trials {
			if g.Trials[j] != w.Trials[j] {
				t.Errorf("%s trial %d: got %+v, golden %+v", g.Name, j, g.Trials[j], w.Trials[j])
			}
		}
	}
}
