package experiments

import (
	"context"
	"fmt"

	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE3 reproduces Theorem 3.3: the uniform algorithm (no information
// about k whatsoever) is O(log^(1+ε) k)-competitive. The measured competitive
// ratio, divided by log^(1+ε) k, should stay within a constant band as k
// grows, while the raw ratio itself clearly grows.
func experimentE3() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Uniform algorithm is O(log^(1+ε) k)-competitive",
		Claim: "Theorem 3.3 (uniform upper bound)",
		Run:   runE3,
	}
}

func runE3(ctx context.Context, cfg Config) (*Outcome, error) {
	eps := 0.5
	maxK := pick(cfg, 64, 256, 1024)
	trials := pick(cfg, 8, 30, 80)
	agents := geometricInts(1, maxK)

	factory, err := scenario.Factory("uniform", scenario.Params{Epsilon: eps})
	if err != nil {
		return nil, fmt.Errorf("E3: %w", err)
	}

	out := &Outcome{}
	tbl := table.New(fmt.Sprintf("E3: competitiveness of Uniform(ε=%.2g) as k grows", eps),
		"k", "D", "mean time", "D + D²/k", "ratio", "ratio / log^(1+ε) k")

	// The competitiveness definition takes a supremum over D; the hard
	// regime is k ≤ D (the paper reduces to it), so track D = 2k with a
	// floor that keeps small-k cells meaningful.
	var cells []scenario.Cell
	for _, k := range agents {
		d := 2 * k
		if d < 32 {
			d = 32
		}
		cells = append(cells, scenario.Cell{
			Scenario: fmt.Sprintf("E3/k=%d/D=%d", k, d),
			Factory:  factory, K: k, D: d, Trials: trials,
		})
	}
	sweep, err := runSweep(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}

	var normalized []float64
	var rawRatios []float64
	for i, cell := range cells {
		st, k, d := sweep[i], cell.K, cell.D
		ratio := st.MeanTime() / st.LowerBound()
		norm := ratio / polylog(k, eps)
		tbl.MustAddRow(k, d, st.MeanTime(), st.LowerBound(), ratio, norm)
		rawRatios = append(rawRatios, ratio)
		if k >= 4 {
			normalized = append(normalized, norm)
		}
	}
	tbl.AddNote("ε = %.2g, trials per cell: %d, D = max(32, 2k)", eps, trials)
	out.Tables = append(out.Tables, tbl)

	// Shape checks: the raw ratio grows with k, but the normalised ratio
	// stays within a constant band (theorem: O(log^(1+ε) k)).
	first, last := rawRatios[0], rawRatios[len(rawRatios)-1]
	out.addFinding("raw competitive ratio grows from %.1f (k=1) to %.1f (k=%d)", first, last, maxK)
	out.addCheck("ratio-grows", last > first,
		"uniform search pays a growing penalty: %.1f -> %.1f", first, last)

	minNorm, maxNorm := normalized[0], normalized[0]
	for _, v := range normalized {
		if v < minNorm {
			minNorm = v
		}
		if v > maxNorm {
			maxNorm = v
		}
	}
	out.addFinding("ratio / log^(1+ε) k stays within [%.1f, %.1f] for k ≥ 4", minNorm, maxNorm)
	out.addCheck("normalised-ratio-bounded", maxNorm <= 6*minNorm+1,
		"normalised band [%.2f, %.2f]; want max within a small constant of min", minNorm, maxNorm)
	return out, nil
}
