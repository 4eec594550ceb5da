package experiments

import (
	"context"
	"fmt"

	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE7 reproduces the comparisons the paper makes in its introduction
// and preliminaries when motivating the model:
//
//   - k independent random walkers have infinite expected hitting time on the
//     infinite grid (here: they overwhelmingly time out within a generous
//     cap, even for a nearby treasure);
//   - a single spiral search finds the treasure in Θ(D²) and gains nothing
//     from more agents;
//   - an agent that knows D needs only O(D);
//   - the paper's algorithms sit in between, close to D + D²/k;
//   - Lévy flights (the biology literature's heuristic) do find the treasure
//     but pay a large constant over the engineered strategies;
//   - a centrally coordinated sector sweep shows what identical agents give
//     up relative to full coordination.
func experimentE7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Baseline comparison: random walks, spiral search, known-D, Lévy flights, coordination",
		Claim: "Section 1 and Section 2 modelling claims",
		Run:   runE7,
	}
}

func runE7(ctx context.Context, cfg Config) (*Outcome, error) {
	d := pick(cfg, 24, 48, 96)
	agents := pick(cfg, []int{1, 4, 16}, []int{1, 4, 16, 64}, []int{1, 4, 16, 64, 256})
	trials := pick(cfg, 10, 40, 120)
	// Cap at 50·D²: far beyond what any reasonable strategy needs (the spiral
	// alone needs about 4·D²), so time-outs expose genuinely pathological
	// strategies rather than an unlucky draw.
	maxTime := 50 * d * d

	// Every contender resolves through the scenario registry; the display
	// name pins the historical table rows and cell seeds.
	contenders := []struct {
		name     string
		scenario string
		params   scenario.Params
	}{
		{"random-walk", "random-walk", scenario.Params{}},
		{"levy-flight(mu=2)", "levy", scenario.Params{Mu: 2}},
		{"single-spiral", "single-spiral", scenario.Params{}},
		{"known-D", "known-d", scenario.Params{D: d}},
		{"sector-sweep", "sector-sweep", scenario.Params{}},
		{"known-k", "known-k", scenario.Params{}},
		{"uniform(0.5)", "uniform", scenario.Params{Epsilon: 0.5}},
		{"harmonic-restart(0.5)", "harmonic-restart", scenario.Params{Delta: 0.5}},
	}

	out := &Outcome{}
	tbl := table.New(fmt.Sprintf("E7: all strategies at D = %d (cap %d steps)", d, maxTime),
		"algorithm", "k", "success rate", "mean time", "median time", "ratio vs D+D²/k")

	var cells []scenario.Cell
	for _, c := range contenders {
		factory, err := scenario.Factory(c.scenario, c.params)
		if err != nil {
			return nil, fmt.Errorf("E7: %w", err)
		}
		for _, k := range agents {
			cells = append(cells, scenario.Cell{
				Scenario: fmt.Sprintf("E7/%s/k=%d", c.name, k),
				Factory:  factory, K: k, D: d, Trials: trials, MaxTime: maxTime,
			})
		}
	}
	sweep, err := runSweep(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}

	// Collect key cells for the checks.
	type cell struct {
		success float64
		mean    float64
	}
	results := make(map[string]map[int]cell)
	idx := 0
	for _, c := range contenders {
		results[c.name] = make(map[int]cell)
		for _, k := range agents {
			st := sweep[idx]
			idx++
			tbl.MustAddRow(c.name, k, st.SuccessRate(), st.MeanTime(), st.MedianTime(), st.MeanRatio())
			results[c.name][k] = cell{success: st.SuccessRate(), mean: st.MeanTime()}
		}
	}
	tbl.AddNote("trials per cell: %d; capped trials are counted at the cap, so means for low-success strategies are lower bounds", trials)
	out.Tables = append(out.Tables, tbl)

	kMid := agents[len(agents)-1]
	rw := results["random-walk"][1]
	spiral := results["single-spiral"][1]
	spiralK := results["single-spiral"][kMid]
	knownK := results["known-k"][kMid]
	uniform := results["uniform(0.5)"][kMid]

	out.addFinding("single random walker success rate %.2f vs 1.00 for every engineered strategy", rw.success)
	out.addCheck("random-walk-fails", rw.success < 0.9,
		"random walk times out on a large fraction of runs (success %.2f) despite a 50·D² budget", rw.success)
	out.addCheck("spiral-no-speedup", spiralK.mean > 0.8*spiral.mean,
		"single-spiral gains nothing from %d agents: %.0f vs %.0f steps", kMid, spiralK.mean, spiral.mean)
	out.addCheck("known-k-beats-spiral", knownK.mean < spiral.mean,
		"known-k with k=%d (%.0f steps) beats the single spiral (%.0f steps)", kMid, knownK.mean, spiral.mean)
	out.addCheck("uniform-close-to-known-k", uniform.mean < 60*knownK.mean,
		"uniform pays only a polylogarithmic factor over known-k at k=%d (%.0f vs %.0f)", kMid, uniform.mean, knownK.mean)
	out.addCheck("known-D-linear", results["known-D"][1].mean < float64(10*d),
		"an agent that knows D finds the treasure in O(D): %.0f steps for D=%d", results["known-D"][1].mean, d)
	return out, nil
}
