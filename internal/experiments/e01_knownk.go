package experiments

import (
	"context"
	"fmt"
	"sort"

	"antsearch/internal/scenario"
	"antsearch/internal/stats"
	"antsearch/internal/table"
)

// experimentE1 reproduces Theorem 3.1: with k known, the KnownK algorithm
// runs in expected time O(D + D²/k), i.e. its competitive ratio against the
// trivial lower bound D + D²/k is bounded by a constant, uniformly in D and
// k.
func experimentE1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "KnownK achieves O(D + D²/k) when k is known",
		Claim: "Theorem 3.1 (optimal non-uniform search)",
		Run:   runE1,
	}
}

func runE1(ctx context.Context, cfg Config) (*Outcome, error) {
	distances := pick(cfg, []int{16, 32, 64}, []int{16, 32, 64, 128, 256}, []int{16, 32, 64, 128, 256, 512})
	agents := pick(cfg, []int{1, 4, 16}, []int{1, 4, 16, 64}, []int{1, 4, 16, 64, 256})
	trials := pick(cfg, 12, 60, 200)

	knownK, err := scenario.Factory("known-k", scenario.Params{})
	if err != nil {
		return nil, fmt.Errorf("E1: %w", err)
	}

	out := &Outcome{}
	tbl := table.New("E1: KnownK expected time vs the D + D²/k lower bound",
		"D", "k", "mean time", "D + D²/k", "ratio")

	var cells []scenario.Cell
	for _, k := range agents {
		for _, d := range distances {
			cells = append(cells, scenario.Cell{
				Scenario: fmt.Sprintf("E1/k=%d/D=%d", k, d),
				Factory:  knownK, K: k, D: d, Trials: trials,
			})
		}
	}
	sweep, err := runSweep(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}

	maxRatio, minRatio := 0.0, 1e18
	// ratioByK[k] collects the ratios across D, used for the flatness check.
	ratioByK := make(map[int][]float64)
	// timesForSlope collects (D, time) for k = 1 to fit the quadratic
	// single-agent exponent.
	var slopeD, slopeT []float64

	for i, cell := range cells {
		st, k, d := sweep[i], cell.K, cell.D
		ratio := st.MeanTime() / st.LowerBound()
		tbl.MustAddRow(d, k, st.MeanTime(), st.LowerBound(), ratio)
		ratioByK[k] = append(ratioByK[k], ratio)
		if ratio > maxRatio {
			maxRatio = ratio
		}
		if ratio < minRatio {
			minRatio = ratio
		}
		if k == 1 {
			slopeD = append(slopeD, float64(d))
			slopeT = append(slopeT, st.MeanTime())
		}
	}
	tbl.AddNote("trials per cell: %d; treasure placed uniformly on the ring of radius D", trials)
	out.Tables = append(out.Tables, tbl)

	out.addFinding("competitive ratio of KnownK stays in [%.2f, %.2f] across the sweep", minRatio, maxRatio)
	out.addCheck("bounded-ratio", maxRatio < 40,
		"max ratio %.2f (theorem predicts an absolute constant; implementation constant ≈ 8)", maxRatio)

	// The ratio must not drift upward with D for any fixed k: compare the
	// largest-D ratio against the smallest-D ratio. Iterate ks in sorted
	// order — a failed check appends to the experiment output, and map
	// order would make the emitted check sequence differ between runs.
	ks := make([]int, 0, len(ratioByK))
	for k := range ratioByK { //antlint:allow maporder keys are sorted before use below
		ks = append(ks, k)
	}
	sort.Ints(ks)
	flat := true
	for _, k := range ks {
		ratios := ratioByK[k]
		first, last := ratios[0], ratios[len(ratios)-1]
		if last > 3*first+1 {
			flat = false
			out.addCheck(fmt.Sprintf("flat-in-D(k=%d)", k), false,
				"ratio grew from %.2f (smallest D) to %.2f (largest D)", first, last)
		}
	}
	if flat {
		out.addCheck("flat-in-D", true, "ratios do not grow with D for any fixed k")
	}

	// Single-agent scaling: time grows like D^2 (the spiral bound), i.e. the
	// log-log slope of time versus D is close to 2.
	if len(slopeD) >= 2 {
		slope, err := stats.LogLogSlope(slopeD, slopeT)
		if err != nil {
			return nil, fmt.Errorf("E1 slope fit: %w", err)
		}
		out.addFinding("single-agent time scales as D^%.2f (theory: D^2)", slope)
		out.addCheck("single-agent-exponent", slope > 1.6 && slope < 2.4,
			"fitted exponent %.2f, want ≈ 2", slope)
	}
	return out, nil
}
