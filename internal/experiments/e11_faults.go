package experiments

import (
	"context"
	"fmt"
	"math"

	"antsearch/internal/fault"
	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE11 is the graceful-degradation study: the paper's model assumes
// all k agents survive the whole search, and the Ω(D + D²/k) lower bound
// (Theorem 4.1, stated for k′ surviving agents as Ω(D + D²/k′)) is the yard-
// stick a fault-tolerant colony should be measured against. E11 subjects the
// known-k algorithm to fail-stop crashes at increasing rates and checks that
// performance degrades gracefully: search time grows with the crash fraction
// but stays within a constant factor of the k′-rebased lower bound — the
// survivors behave like a smaller, still-competitive colony. A second sweep
// injects fail-stall pauses (transient faults) and checks they cost time but
// never success.
func experimentE11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Graceful degradation under fail-stop and fail-stall faults",
		Claim: "Survivor-rebased competitiveness against the Ω(D + D²/k′) bound",
		Run:   runE11,
	}
}

func runE11(ctx context.Context, cfg Config) (*Outcome, error) {
	out := &Outcome{}

	k := pick(cfg, 8, 16, 32)
	d := pick(cfg, 16, 32, 64)
	trials := pick(cfg, 20, 60, 150)
	// An explicit cap keeps the rare all-agents-crashed trial (probability
	// p^k per trial) from parking at the engine's huge default budget and
	// swamping the mean: a dead colony costs a bounded, interpretable amount.
	maxTime := 64 * d * d

	// Part A: fail-stop crash sweep. Crashes are drawn uniformly over the
	// first D steps — early enough to destroy most of a victim's useful work,
	// which is the harshest fail-stop regime for a fixed crash fraction.
	crashProbs := []float64{0, 0.25, 0.5, 0.75}
	tblA := table.New(fmt.Sprintf("E11a: fail-stop degradation at k = %d, D = %d", k, d),
		"crash prob", "mean survivors", "success", "mean time", "mean k'-ratio")
	timeByProb := make(map[float64]float64)
	ratioByProb := make(map[float64]float64)
	survivorsByProb := make(map[float64]float64)
	for _, p := range crashProbs {
		factory, err := scenario.Factory("known-k", scenario.Params{})
		if err != nil {
			return nil, fmt.Errorf("E11: %w", err)
		}
		var plan *fault.Plan
		if p > 0 {
			plan = &fault.Plan{CrashProb: p, CrashBy: d}
		}
		st, err := measure(ctx, cfg, scenario.Cell{
			Scenario: fmt.Sprintf("E11a/crash=%.2g", p),
			Factory:  factory, K: k, D: d, Trials: trials, MaxTime: maxTime, Faults: plan,
		})
		if err != nil {
			return nil, err
		}
		timeByProb[p] = st.MeanTime()
		ratioByProb[p] = st.MeanSurvivorRatio()
		survivorsByProb[p] = st.MeanSurvivors()
		tblA.MustAddRow(p, st.MeanSurvivors(), st.SuccessRate(),
			st.MeanTime(), st.MeanSurvivorRatio())
	}
	tblA.AddNote("crashes drawn uniformly over [0, D); %d trials per cell, capped at %d steps", trials, maxTime)
	out.Tables = append(out.Tables, tblA)

	out.addFinding("crashing 75%% of %d agents in the first %d steps raises mean time from %.0f to %.0f (×%.2f)",
		k, d, timeByProb[0], timeByProb[0.75], timeByProb[0.75]/math.Max(timeByProb[0], 1))
	out.addCheck("fault-free-full-colony", survivorsByProb[0] == float64(k),
		"with no faults every trial ends with all %d agents surviving (got mean %.2f)",
		k, survivorsByProb[0])
	out.addCheck("degradation-monotone", timeByProb[0.75] >= timeByProb[0],
		"mean time under 75%% crashes (%.0f) is no better than fault-free (%.0f)",
		timeByProb[0.75], timeByProb[0])
	kPrimeBound := 64.0
	boundOK := true
	for _, p := range crashProbs {
		r := ratioByProb[p]
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 || r > kPrimeBound {
			boundOK = false
		}
	}
	out.addCheck("kprime-ratio-bounded", boundOK,
		"mean time / (D + D²/k′) stays finite and below %.0f at every crash rate (survivors act like a smaller colony)",
		kPrimeBound)

	// Part B: fail-stall sweep. Every agent pauses once, for increasingly
	// long stretches; stalls delay but never destroy coverage, so success
	// must not degrade while time may. All three cells share one label and
	// therefore one seed — common random numbers: identical placements,
	// identical agent walks, identical stall starts and identical raw
	// duration draws. With the power-of-two duration bounds below, the
	// drawn stall length 1+IntN(dur) is monotone in dur for a fixed raw
	// draw (xrand masks power-of-two bounds), so every agent's delay — and
	// hence every trial's time — is deterministically non-decreasing in
	// dur, which turns the monotonicity check from a statistical bet into
	// an invariant.
	stallDurs := []int{d / 4, d, 4 * d}
	tblB := table.New(fmt.Sprintf("E11b: fail-stall sensitivity at k = %d, D = %d", k, d),
		"stall dur", "success", "mean time", "mean survivors")
	timeByDur := make(map[int]float64)
	successOK := true
	for _, dur := range stallDurs {
		factory, err := scenario.Factory("known-k", scenario.Params{})
		if err != nil {
			return nil, fmt.Errorf("E11: %w", err)
		}
		plan := &fault.Plan{StallProb: 1, StallBy: d, StallDur: dur}
		st, err := measure(ctx, cfg, scenario.Cell{
			Scenario: "E11b/stall",
			Factory:  factory, K: k, D: d, Trials: trials, MaxTime: maxTime, Faults: plan,
		})
		if err != nil {
			return nil, err
		}
		timeByDur[dur] = st.MeanTime()
		if st.SuccessRate() < 1 {
			successOK = false
		}
		tblB.MustAddRow(dur, st.SuccessRate(), st.MeanTime(), st.MeanSurvivors())
	}
	tblB.AddNote("every agent stalls once, starting uniformly in [0, D); %d trials per cell", trials)
	out.Tables = append(out.Tables, tblB)

	out.addCheck("stalls-never-kill", successOK,
		"fail-stall faults delay coverage but never prevent it: success stays 1 at every stall length")
	monotone := timeByDur[d/4] <= timeByDur[d] && timeByDur[d] <= timeByDur[4*d]
	out.addCheck("stall-cost-monotone", monotone,
		"under common random numbers longer stalls cost monotonically more time (%.0f / %.0f / %.0f at %d / %d / %d)",
		timeByDur[d/4], timeByDur[d], timeByDur[4*d], d/4, d, 4*d)
	return out, nil
}
