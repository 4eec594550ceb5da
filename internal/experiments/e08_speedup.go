package experiments

import (
	"context"
	"fmt"

	"antsearch/internal/metrics"
	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE8 measures the speed-up T(1)/T(k), the lens through which the
// paper (and the multi-random-walk literature it cites) evaluates collective
// search. For a treasure at distance D the best possible speed-up is
// Θ(min(k, D)) — linear while the D²/k term dominates, saturating once the
// walk-out distance D dominates. KnownK should track that profile, Uniform
// should track it up to its polylogarithmic penalty, and the single spiral
// should stay flat at 1.
func experimentE8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Speed-up T(1)/T(k): near-linear until k ≈ D, then saturating",
		Claim: "Section 1/2 speed-up discussion and the Ω(D + D²/k) bound",
		Run:   runE8,
	}
}

func runE8(ctx context.Context, cfg Config) (*Outcome, error) {
	d := pick(cfg, 64, 128, 256)
	maxK := pick(cfg, 64, 256, 1024)
	trials := pick(cfg, 10, 40, 100)
	agents := geometricInts(1, maxK)

	contenders := []struct {
		name     string
		scenario string
		params   scenario.Params
	}{
		{"known-k", "known-k", scenario.Params{}},
		{"uniform(0.5)", "uniform", scenario.Params{Epsilon: 0.5}},
		{"harmonic-restart(0.5)", "harmonic-restart", scenario.Params{Delta: 0.5}},
		{"sector-sweep", "sector-sweep", scenario.Params{}},
		{"single-spiral", "single-spiral", scenario.Params{}},
	}

	out := &Outcome{}
	tbl := table.New(fmt.Sprintf("E8: speed-up T(1)/T(k) at D = %d", d),
		"algorithm", "k", "mean time", "speed-up", "speed-up / k")

	var cells []scenario.Cell
	for _, c := range contenders {
		factory, err := scenario.Factory(c.scenario, c.params)
		if err != nil {
			return nil, fmt.Errorf("E8: %w", err)
		}
		for _, k := range agents {
			cells = append(cells, scenario.Cell{
				Scenario: fmt.Sprintf("E8/%s/k=%d", c.name, k),
				Factory:  factory, K: k, D: d, Trials: trials,
			})
		}
	}
	sweep, err := runSweep(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}

	speedups := make(map[string]map[int]float64)
	idx := 0
	for _, c := range contenders {
		speedups[c.name] = make(map[int]float64)
		var t1 float64
		for _, k := range agents {
			st := sweep[idx]
			idx++
			if k == 1 {
				t1 = st.MeanTime()
			}
			sp := metrics.Speedup(t1, st.MeanTime())
			speedups[c.name][k] = sp
			tbl.MustAddRow(c.name, k, st.MeanTime(), sp, sp/float64(k))
		}
	}
	tbl.AddNote("trials per cell: %d; speed-up is relative to the same algorithm run with a single agent", trials)
	out.Tables = append(out.Tables, tbl)

	kBig := agents[len(agents)-1]
	kMid := kBig
	for _, k := range agents {
		if k <= d/4 {
			kMid = k
		}
	}
	out.addFinding("known-k speed-up reaches %.1f at k=%d (D=%d)", speedups["known-k"][kBig], kBig, d)
	out.addCheck("known-k-scales", speedups["known-k"][kMid] > float64(kMid)/8,
		"known-k speed-up at k=%d is %.1f, a constant fraction of linear", kMid, speedups["known-k"][kMid])
	out.addCheck("uniform-scales", speedups["uniform(0.5)"][kBig] > 3,
		"uniform also speeds up with k (%.1f at k=%d), just with a polylog penalty", speedups["uniform(0.5)"][kBig], kBig)
	out.addCheck("spiral-flat", speedups["single-spiral"][kBig] < 2,
		"single-spiral speed-up stays ≈ 1 (%.2f at k=%d): identical deterministic agents are redundant",
		speedups["single-spiral"][kBig], kBig)
	out.addCheck("speedup-bounded-by-k", speedups["known-k"][kBig] <= float64(kBig)*1.5+1,
		"no algorithm beats linear speed-up (known-k: %.1f at k=%d)", speedups["known-k"][kBig], kBig)
	return out, nil
}
