package experiments

import (
	"context"
	"fmt"

	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE2 reproduces Corollary 3.2: if every agent only has a
// ρ-approximation of k, running KnownK with the conservative estimate k_a/ρ
// is still O(1)-competitive, with a penalty that grows at most like ρ².
func experimentE2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "A ρ-approximation of k suffices for O(1)-competitiveness",
		Claim: "Corollary 3.2 (constant-factor approximation of k)",
		Run:   runE2,
	}
}

func runE2(ctx context.Context, cfg Config) (*Outcome, error) {
	d := pick(cfg, 48, 128, 256)
	agents := pick(cfg, []int{4, 16}, []int{4, 16, 64}, []int{4, 16, 64, 256})
	rhos := []float64{1, 2, 4, 8}
	trials := pick(cfg, 12, 50, 150)

	out := &Outcome{}
	tbl := table.New("E2: competitiveness of KnownK run with a ρ-approximation of k",
		"rho", "bias", "k", "mean time", "ratio", "ratio / rho²")

	// ratioAt[rho] holds the worst ratio observed for that rho (over k and
	// bias), used for the growth check.
	ratioAt := make(map[float64]float64)
	for _, rho := range rhos {
		// The advice k_a may sit anywhere in [k/ρ, kρ]; measure both extremes
		// (the corollary's analysis is worst-case over the interval).
		biases := []float64{1 / rho, rho}
		if rho == 1 {
			biases = []float64{1}
		}
		for _, bias := range biases {
			factory, err := scenario.Factory("rho-approx", scenario.Params{Rho: rho, Bias: bias})
			if err != nil {
				return nil, fmt.Errorf("E2: %w", err)
			}
			for _, k := range agents {
				st, err := measure(ctx, cfg, scenario.Cell{
					Scenario: fmt.Sprintf("E2/rho=%.2g/bias=%.2g/k=%d", rho, bias, k),
					Factory:  factory, K: k, D: d, Trials: trials,
				})
				if err != nil {
					return nil, err
				}
				ratio := st.MeanTime() / st.LowerBound()
				tbl.MustAddRow(rho, bias, k, st.MeanTime(), ratio, ratio/(rho*rho))
				if ratio > ratioAt[rho] {
					ratioAt[rho] = ratio
				}
			}
		}
	}
	tbl.AddNote("D = %d, trials per cell: %d; bias is k_a/k, exercised at both ends of [1/ρ, ρ]", d, trials)
	out.Tables = append(out.Tables, tbl)

	out.addFinding("worst ratio grows from %.2f at ρ=1 to %.2f at ρ=8", ratioAt[1], ratioAt[8])
	out.addCheck("constant-for-fixed-rho", ratioAt[1] < 40 && ratioAt[2] < 80,
		"ratios for small ρ remain bounded (ρ=1: %.2f, ρ=2: %.2f)", ratioAt[1], ratioAt[2])
	// The corollary bounds the penalty by ρ²; allow generous slack but make
	// sure the growth is at most polynomial of that order (not exponential).
	out.addCheck("rho-squared-penalty", ratioAt[8] <= ratioAt[1]*8*8*2+1,
		"ratio at ρ=8 is %.2f, bound 2·ρ²·ratio(1) = %.2f", ratioAt[8], ratioAt[1]*128)
	out.addCheck("monotone-in-rho", ratioAt[8] >= ratioAt[1],
		"worse approximations should not help: ratio(ρ=8)=%.2f >= ratio(ρ=1)=%.2f", ratioAt[8], ratioAt[1])
	return out, nil
}
