package experiments

import (
	"context"
	"fmt"

	"antsearch/internal/agent"
	"antsearch/internal/metrics"
	"antsearch/internal/parallel"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/table"
	"antsearch/internal/xrand"
)

// experimentE9 quantifies the crowding phenomenon the paper's introduction
// uses to motivate the whole problem: to find nearby treasures quickly a
// large part of the search force must stay near the source, and those agents
// inevitably re-search cells that were already searched. The experiment runs
// the exact engine with the coverage tracker and reports the overlap
// (redundant-visit) fraction as k grows, for identical probabilistic agents
// versus the coordinated sector sweep.
func experimentE9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Overlap: identical agents re-search cells; coordination avoids it",
		Claim: "Section 1 (crowding vs speed-up trade-off)",
		Run:   runE9,
	}
}

func runE9(ctx context.Context, cfg Config) (*Outcome, error) {
	d := pick(cfg, 16, 32, 48)
	agents := pick(cfg, []int{1, 4, 16}, []int{1, 4, 16, 64}, []int{1, 4, 16, 64, 128})
	trials := pick(cfg, 3, 8, 20)

	// The exact (cell-level) engine drives the coverage analysis directly,
	// but the contenders still resolve through the scenario registry.
	specs := []struct {
		name     string
		scenario string
		params   scenario.Params
	}{
		{"known-k", "known-k", scenario.Params{}},
		{"uniform(0.5)", "uniform", scenario.Params{Epsilon: 0.5}},
		{"sector-sweep", "sector-sweep", scenario.Params{}},
	}
	contenders := make([]struct {
		name    string
		factory agent.Factory
	}, len(specs))
	for i, s := range specs {
		factory, err := scenario.Factory(s.scenario, s.params)
		if err != nil {
			return nil, fmt.Errorf("E9: %w", err)
		}
		contenders[i].name = s.name
		contenders[i].factory = factory
	}

	out := &Outcome{}
	tbl := table.New(fmt.Sprintf("E9: overlap fraction and ball coverage at D = %d", d),
		"algorithm", "k", "overlap fraction", "distinct nodes", "fraction of B(D) covered", "mean time")

	// Every (contender, k, trial) run is one task of a single fan-out; the
	// runs of a cell are then averaged in trial order.
	type trialOut struct{ overlap, distinct, ballFrac, time float64 }
	perContender := len(agents) * trials
	outs, err := parallel.Map(ctx, len(contenders)*perContender, cfg.Workers, func(task int) (trialOut, error) {
		c := contenders[task/perContender]
		k := agents[task%perContender/trials]
		trial := task % trials
		seedStream := xrand.NewStream(cfg.Seed, hashLabel(fmt.Sprintf("E9/%s/k=%d", c.name, k)), uint64(trial))
		treasure := seedStream.UniformRingPoint(d)
		cov := metrics.NewCoverage(k)
		res, err := sim.RunExact(sim.Instance{
			Algorithm: c.factory(k),
			NumAgents: k,
			Treasure:  treasure,
		}, sim.Options{
			Seed: xrand.DeriveSeed(cfg.Seed, hashLabel(c.name), uint64(k), uint64(trial)),
		}, cov.Visit)
		if err != nil {
			return trialOut{}, fmt.Errorf("E9 %s k=%d: %w", c.name, k, err)
		}
		return trialOut{cov.OverlapFraction(), float64(cov.DistinctNodes()), cov.FractionOfBallCovered(d), float64(res.Time)}, nil
	})
	if err != nil {
		return nil, err
	}

	overlap := make(map[string]map[int]float64)
	for ci, c := range contenders {
		overlap[c.name] = make(map[int]float64)
		for ki, k := range agents {
			var sum trialOut
			first := ci*perContender + ki*trials
			for _, o := range outs[first : first+trials] {
				sum.overlap += o.overlap
				sum.distinct += o.distinct
				sum.ballFrac += o.ballFrac
				sum.time += o.time
			}
			n := float64(trials)
			overlap[c.name][k] = sum.overlap / n
			tbl.MustAddRow(c.name, k, sum.overlap/n, sum.distinct/n, sum.ballFrac/n, sum.time/n)
		}
	}
	tbl.AddNote("exact (cell-level) engine, %d trials per cell; overlap = 1 − distinct nodes / total steps", trials)
	out.Tables = append(out.Tables, tbl)

	kBig := agents[len(agents)-1]
	out.addFinding("known-k overlap grows from %.2f (k=1) to %.2f (k=%d); sector-sweep stays at %.2f",
		overlap["known-k"][1], overlap["known-k"][kBig], kBig, overlap["sector-sweep"][kBig])
	out.addCheck("overlap-grows-with-k", overlap["known-k"][kBig] > overlap["known-k"][1],
		"identical probabilistic agents overlap more as k grows (%.2f -> %.2f)",
		overlap["known-k"][1], overlap["known-k"][kBig])
	out.addCheck("coordination-reduces-overlap", overlap["sector-sweep"][kBig] < overlap["known-k"][kBig],
		"the coordinated sweep overlaps less than identical agents at k=%d (%.2f vs %.2f)",
		kBig, overlap["sector-sweep"][kBig], overlap["known-k"][kBig])
	return out, nil
}
