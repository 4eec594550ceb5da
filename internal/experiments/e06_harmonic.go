package experiments

import (
	"context"
	"fmt"
	"math"

	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE6 reproduces Theorem 5.1: for the one-shot harmonic algorithm
// with parameter δ, once the number of agents clears the threshold k ≳ αD^δ
// the treasure is found with high probability and the running time is
// O(D + D^(2+δ)/k). The experiment sweeps k across the threshold for several
// δ and D and reports the success probability and the normalised time.
func experimentE6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Harmonic algorithm: success threshold k ≳ αD^δ and time O(D + D^(2+δ)/k)",
		Claim: "Theorem 5.1 (harmonic search algorithm)",
		Run:   runE6,
	}
}

func runE6(ctx context.Context, cfg Config) (*Outcome, error) {
	deltas := []float64{0.2, 0.5, 0.8}
	distances := pick(cfg, []int{16, 32}, []int{16, 32, 64}, []int{32, 64, 128})
	multipliers := pick(cfg, []float64{0.5, 4, 16}, []float64{0.25, 0.5, 1, 2, 4, 8, 16}, []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32})
	trials := pick(cfg, 30, 120, 400)

	out := &Outcome{}
	tbl := table.New("E6: one-shot harmonic algorithm across the k ≈ D^δ threshold",
		"delta", "D", "k", "k / D^δ", "success rate", "median time (successes)", "median / (D + D^(2+δ)/k)")

	// The theorem promises that, with probability 1−ε, the treasure is found
	// within O(D + D^(2+δ)/k). Cap every trial at a fixed multiple of that
	// bound so that "success" directly measures the theorem's event; the
	// (rare) trials in which only a far-away sortie would eventually sweep
	// over the treasure count as misses rather than polluting the averages.
	const capFactor = 50

	// successLow/High aggregate success rates well below and well above the
	// threshold for the headline check.
	var successLow, successHigh []float64
	var normalizedHigh []float64
	for _, delta := range deltas {
		factory, err := scenario.Factory("harmonic", scenario.Params{Delta: delta})
		if err != nil {
			return nil, fmt.Errorf("E6: %w", err)
		}
		for _, d := range distances {
			threshold := math.Pow(float64(d), delta)
			for _, m := range multipliers {
				k := int(math.Round(m * threshold))
				if k < 1 {
					k = 1
				}
				bound := float64(d) + math.Pow(float64(d), 2+delta)/float64(k)
				maxT := int(capFactor * bound)
				st, err := measure(ctx, cfg, scenario.Cell{
					Scenario: fmt.Sprintf("E6/delta=%.2g/D=%d/m=%.2g", delta, d, m),
					Factory:  factory, K: k, D: d, Trials: trials, MaxTime: maxT,
				})
				if err != nil {
					return nil, err
				}
				med := st.MedianFoundTime()
				norm := med / bound
				tbl.MustAddRow(delta, d, k, float64(k)/threshold, st.SuccessRate(), med, norm)
				if m <= 0.5 {
					successLow = append(successLow, st.SuccessRate())
				}
				if m >= 16 {
					successHigh = append(successHigh, st.SuccessRate())
					if st.Found > 0 {
						normalizedHigh = append(normalizedHigh, norm)
					}
				}
			}
		}
	}
	tbl.AddNote("trials per cell: %d; each trial capped at %d·(D + D^(2+δ)/k); the algorithm performs a single sortie, so misses are expected below the threshold", trials, capFactor)
	out.Tables = append(out.Tables, tbl)

	meanLow := mean(successLow)
	meanHigh := mean(successHigh)
	out.addFinding("success probability rises from %.2f (k ≈ D^δ/2 and below) to %.2f (k ≥ 16·D^δ)", meanLow, meanHigh)
	out.addCheck("threshold-behaviour", meanHigh > meanLow && meanHigh >= 0.85,
		"success rate above threshold %.2f (want ≥ 0.85) vs %.2f below", meanHigh, meanLow)

	if len(normalizedHigh) > 0 {
		worst := 0.0
		for _, v := range normalizedHigh {
			if v > worst {
				worst = v
			}
		}
		out.addFinding("above the threshold the median successful-run time stays within %.1f× of D + D^(2+δ)/k", worst)
		out.addCheck("time-bound", worst < 25,
			"normalised median time of successful runs bounded by %.1f (theorem: O(1) factor)", worst)
	}
	return out, nil
}

// mean returns the arithmetic mean of vs (0 for an empty slice).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
