package sim

// Golden determinism tests: the per-trial outcomes (Found/Time/Finder) and the
// headline aggregates of MonteCarlo are pinned, for fixed seeds, to files under
// testdata/ generated by the pre-refactor engine. Any engine change that
// shifts a single trial's result — a different RNG consumption order, a
// different heap tie-break, a different shard merge — fails these tests.
//
// Regenerate (only when an output change is intentional and understood) with:
//
//	go test ./internal/sim -run TestGoldenDeterminism -update-golden

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/baseline"
	"antsearch/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenTrial is the per-trial record the golden file pins.
type goldenTrial struct {
	Found  bool `json:"found"`
	Time   int  `json:"time"`
	Finder int  `json:"finder"`
}

// goldenAggregate pins the headline aggregate statistics of the same run, so
// the shard-merge path is covered in addition to the per-trial path.
type goldenAggregate struct {
	Found      int     `json:"found"`
	Capped     int     `json:"capped"`
	MeanTime   float64 `json:"mean_time"`
	MedianTime float64 `json:"median_time"`
	MeanRatio  float64 `json:"mean_ratio"`
}

// goldenCase is one scenario's pinned outputs.
type goldenCase struct {
	Name      string          `json:"name"`
	Trials    []goldenTrial   `json:"trials"`
	Aggregate goldenAggregate `json:"aggregate"`
}

// goldenConfigs returns the fixed configurations the golden file covers: every
// algorithm of the scenario registry — the paper's four algorithms, the two
// extensions, the five baselines — plus a delayed-start wrapper (which
// exercises Pause segments). Covering the full registry means any change to
// any searcher's segment emission, RNG consumption order, heap tie-break or
// shard merge fails here, for the algorithm it touched.
func goldenConfigs(t *testing.T) []struct {
	name string
	cfg  TrialConfig
} {
	t.Helper()
	uniformFactory, err := core.UniformFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	harmonicFactory, err := core.HarmonicFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	delayedFactory, err := agent.DelayedFactory(core.Factory(), 16)
	if err != nil {
		t.Fatal(err)
	}
	rhoFactory, err := core.RhoApproxFactory(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	restartFactory, err := core.HarmonicRestartFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	hedgeFactory, err := core.ApproxHedgeFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	levyFactory, err := baseline.LevyFlightFactory(2)
	if err != nil {
		t.Fatal(err)
	}
	knownDFactory, err := baseline.KnownDFactory(8)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		cfg  TrialConfig
	}{
		{"knownk", TrialConfig{
			Factory: core.Factory(), NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7,
		}},
		{"uniform", TrialConfig{
			Factory: uniformFactory, NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7,
		}},
		{"harmonic", TrialConfig{
			Factory: harmonicFactory, NumAgents: 8, Distance: 4,
			Trials: 64, Seed: 7, MaxTime: 1 << 20,
		}},
		{"single-spiral", TrialConfig{
			Factory: baseline.SingleSpiralFactory(), NumAgents: 2, Distance: 6,
			Trials: 32, Seed: 11,
		}},
		{"delayed-knownk", TrialConfig{
			Factory: delayedFactory, NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7,
		}},
		{"rho-approx", TrialConfig{
			Factory: rhoFactory, NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7,
		}},
		{"harmonic-restart", TrialConfig{
			Factory: restartFactory, NumAgents: 8, Distance: 4,
			Trials: 64, Seed: 7, MaxTime: 1 << 20,
		}},
		{"approx-hedge", TrialConfig{
			Factory: hedgeFactory, NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7,
		}},
		// The random walk emits one unit step per segment, so its cap bounds
		// the golden run's work; 2^12 steps keeps the case fast while leaving
		// room for a mix of found and capped trials at distance 4.
		{"random-walk", TrialConfig{
			Factory: baseline.RandomWalkFactory(), NumAgents: 4, Distance: 4,
			Trials: 32, Seed: 7, MaxTime: 1 << 12,
		}},
		{"levy", TrialConfig{
			Factory: levyFactory, NumAgents: 4, Distance: 8,
			Trials: 32, Seed: 7, MaxTime: 1 << 16,
		}},
		{"sector-sweep", TrialConfig{
			Factory: baseline.SectorSweepFactory(), NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7,
		}},
		// known-d only finds treasures at its advised distance, so it is
		// paired with the matching Distance.
		{"known-d", TrialConfig{
			Factory: knownDFactory, NumAgents: 4, Distance: 8,
			Trials: 64, Seed: 7,
		}},
	}
}

const goldenPath = "testdata/golden_trials.json"

// TestGoldenDeterminism asserts that MonteCarlo's per-trial results and
// aggregates are byte-identical to the recorded pre-refactor outputs.
func TestGoldenDeterminism(t *testing.T) {
	t.Parallel()

	ctx := context.Background()
	var got []goldenCase
	for _, c := range goldenConfigs(t) {
		results, err := MonteCarloResults(ctx, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		trials := make([]goldenTrial, len(results))
		for i, r := range results {
			trials[i] = goldenTrial{Found: r.Found, Time: r.Time, Finder: r.Finder}
		}
		st, err := MonteCarlo(ctx, c.cfg)
		if err != nil {
			t.Fatalf("%s aggregate: %v", c.name, err)
		}
		got = append(got, goldenCase{
			Name:   c.name,
			Trials: trials,
			Aggregate: goldenAggregate{
				Found:      st.Found,
				Capped:     st.Capped,
				MeanTime:   st.MeanTime(),
				MedianTime: st.MedianTime(),
				MeanRatio:  st.MeanRatio(),
			},
		})
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenCase
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
