package experiments

import (
	"context"
	"fmt"
	"math"

	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE10 is the ablation study for the two tunable design choices in
// the paper's algorithms:
//
//   - the hedging exponent ε of the uniform algorithm (Theorem 3.3 holds for
//     every ε > 0, but the constant hidden in O(log^(1+ε) k) explodes as
//     ε → 0, so at practical scales there is a sweet spot);
//   - the tail exponent δ of the harmonic algorithm (Theorem 5.1's threshold
//     αD^δ rises with δ while the per-sortie cost D^(2+δ) also rises, so the
//     one-shot success probability at fixed k trades off against the time
//     bound), including the comparison between the paper's one-shot variant
//     and the restarting extension.
func experimentE10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Ablations: uniform hedging exponent ε and harmonic tail δ",
		Claim: "Design-choice sensitivity for Theorems 3.3 and 5.1",
		Run:   runE10,
	}
}

func runE10(ctx context.Context, cfg Config) (*Outcome, error) {
	out := &Outcome{}

	// Part A: uniform algorithm ε sweep at a fixed, moderately large scale.
	epsilons := []float64{0.1, 0.25, 0.5, 1, 2}
	k := pick(cfg, 32, 64, 256)
	d := 2 * k
	trials := pick(cfg, 10, 40, 100)

	tblA := table.New(fmt.Sprintf("E10a: Uniform ε ablation at k = %d, D = %d", k, d),
		"epsilon", "mean time", "ratio", "ratio / log^(1+ε) k")
	ratioByEps := make(map[float64]float64)
	for _, eps := range epsilons {
		factory, err := scenario.Factory("uniform", scenario.Params{Epsilon: eps})
		if err != nil {
			return nil, fmt.Errorf("E10: %w", err)
		}
		st, err := measure(ctx, cfg, scenario.Cell{
			Scenario: fmt.Sprintf("E10a/eps=%.2g", eps),
			Factory:  factory, K: k, D: d, Trials: trials,
		})
		if err != nil {
			return nil, err
		}
		ratio := st.MeanTime() / st.LowerBound()
		ratioByEps[eps] = ratio
		tblA.MustAddRow(eps, st.MeanTime(), ratio, ratio/polylog(k, eps))
	}
	tblA.AddNote("trials per cell: %d", trials)
	out.Tables = append(out.Tables, tblA)
	out.addFinding("uniform ratio at k=%d: ε=0.1 -> %.1f, ε=0.5 -> %.1f, ε=2 -> %.1f",
		k, ratioByEps[0.1], ratioByEps[0.5], ratioByEps[2])
	out.addCheck("all-eps-work", allPositive(ratioByEps),
		"every ε > 0 yields a working uniform algorithm (Theorem 3.3 needs only ε > 0)")

	// Part B: harmonic δ sweep — one-shot success probability and restarting
	// variant's time at fixed k and D.
	deltas := []float64{0.1, 0.2, 0.4, 0.6, 0.8}
	dH := pick(cfg, 24, 48, 96)
	kH := pick(cfg, 8, 16, 32)
	trialsH := pick(cfg, 30, 120, 300)
	tblB := table.New(fmt.Sprintf("E10b: harmonic δ ablation at k = %d, D = %d", kH, dH),
		"delta", "k / D^δ", "one-shot success", "restart mean time", "restart ratio")
	successes := make(map[float64]float64)
	for _, delta := range deltas {
		oneShot, err := scenario.Factory("harmonic", scenario.Params{Delta: delta})
		if err != nil {
			return nil, fmt.Errorf("E10: %w", err)
		}
		restart, err := scenario.Factory("harmonic-restart", scenario.Params{Delta: delta})
		if err != nil {
			return nil, fmt.Errorf("E10: %w", err)
		}
		stOne, err := measure(ctx, cfg, scenario.Cell{
			Scenario: fmt.Sprintf("E10b/one/delta=%.2g", delta),
			Factory:  oneShot, K: kH, D: dH, Trials: trialsH,
		})
		if err != nil {
			return nil, err
		}
		stRe, err := measure(ctx, cfg, scenario.Cell{
			Scenario: fmt.Sprintf("E10b/re/delta=%.2g", delta),
			Factory:  restart, K: kH, D: dH, Trials: trials,
		})
		if err != nil {
			return nil, err
		}
		successes[delta] = stOne.SuccessRate()
		tblB.MustAddRow(delta,
			float64(kH)/math.Pow(float64(dH), delta),
			stOne.SuccessRate(),
			stRe.MeanTime(),
			stRe.MeanTime()/stRe.LowerBound())
	}
	tblB.AddNote("one-shot success over %d trials; restart statistics over %d trials", trialsH, trials)
	out.Tables = append(out.Tables, tblB)

	out.addFinding("one-shot success at k=%d, D=%d falls from %.2f (δ=0.1) to %.2f (δ=0.8) as the threshold αD^δ rises",
		kH, dH, successes[0.1], successes[0.8])
	out.addCheck("delta-threshold-tradeoff", successes[0.1] >= successes[0.8],
		"smaller δ succeeds at least as often at fixed k (%.2f vs %.2f), as the threshold predicts",
		successes[0.1], successes[0.8])
	return out, nil
}

// allPositive reports whether every value in the map is strictly positive.
func allPositive(m map[float64]float64) bool {
	for _, v := range m {
		if v <= 0 {
			return false
		}
	}
	return len(m) > 0
}
