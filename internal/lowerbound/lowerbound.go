// Package lowerbound implements the measurement harness behind the paper's
// two impossibility results (Theorems 4.1 and 4.2). Both proofs follow the
// same counting scheme:
//
//  1. pretend the treasure is unreachable (placed at distance 2T+1), so the
//     algorithm just runs for 2T steps;
//  2. for a geometric sequence of hypothetical agent counts k_i = 2^i, look
//     at the annulus S_i of the plane that a φ-competitive algorithm would
//     have to cover by time 2T if the number of agents were k_i (every node
//     of S_i must be visited with probability at least 1/2);
//  3. charge the expected number of distinct S_i-nodes visited to the
//     individual agents: each agent must personally visit Ω(|S_i|/k_i) of
//     them, for every i simultaneously;
//  4. since an agent visits at most 2T nodes in 2T steps, the per-scale
//     charges must sum to O(T) — which forces Σ 1/φ(2^i) to converge
//     (Theorem 4.1) and forces φ(k) = Ω(ε(k)·log k) when the scales are
//     limited to the ones compatible with a k^ε-approximation (Theorem 4.2).
//
// The harness makes the counting empirical: it runs a (uniform or advised)
// algorithm with k_i agents for a fixed horizon, measures the per-agent
// distinct-node coverage of each annulus with the exact engine, and reports
// the per-scale charges and their sum. Experiment E4 (DESIGN.md §4) turns
// those measurements into its coverage and divergence tables.
package lowerbound

import (
	"context"
	"errors"
	"fmt"
	"math"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/metrics"
	"antsearch/internal/parallel"
	"antsearch/internal/sim"
	"antsearch/internal/stats"
	"antsearch/internal/xrand"
)

// Config describes one coverage measurement.
type Config struct {
	// Factory supplies the algorithm under test for each hypothetical number
	// of agents.
	Factory agent.Factory
	// Scales are the agent counts k_i to measure (typically powers of two).
	Scales []int
	// Horizon is the simulated time budget 2T for every scale.
	Horizon int
	// Trials is the number of independent repetitions averaged per scale.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the number of goroutines (0 = GOMAXPROCS).
	Workers int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Factory == nil {
		return errors.New("lowerbound: config has no factory")
	}
	if len(c.Scales) == 0 {
		return errors.New("lowerbound: config has no scales")
	}
	for _, k := range c.Scales {
		if k < 1 {
			return fmt.Errorf("lowerbound: invalid scale %d", k)
		}
	}
	if c.Horizon < 2 {
		return fmt.Errorf("lowerbound: horizon must be at least 2, got %d", c.Horizon)
	}
	if c.Trials < 1 {
		return fmt.Errorf("lowerbound: need at least one trial, got %d", c.Trials)
	}
	return nil
}

// annuli returns the radius breakpoints: annulus i covers distances
// (annuli[i-1], annuli[i]] (with an implicit 0 before the first entry), at
// the geometric breakpoints 2, 4, 8, ... up to the largest radius an agent
// could reach within the horizon.
func (c Config) annuli() []int {
	var out []int
	for r := 2; r <= c.Horizon; r *= 2 {
		out = append(out, r)
	}
	if len(out) == 0 {
		out = []int{c.Horizon}
	}
	return out
}

// ScaleReport is the measurement for one hypothetical agent count.
type ScaleReport struct {
	// K is the number of agents simulated.
	K int
	// Horizon echoes the time budget 2T.
	Horizon int
	// PerAgentDistinct is the mean (over trials) of the average number of
	// distinct nodes a single agent visited within the horizon.
	PerAgentDistinct stats.Summary
	// AnnulusPerAgent[i] is the mean per-agent count of distinct nodes
	// visited inside annulus i.
	AnnulusPerAgent []float64
	// AnnulusCovered[i] is the mean fraction of annulus i's nodes visited by
	// at least one of the K agents.
	AnnulusCovered []float64
	// Overlap is the mean overlap (redundant-visit) fraction.
	Overlap float64
}

// Report is the outcome of a coverage measurement across scales.
type Report struct {
	// Annuli are the radius breakpoints shared by every scale.
	Annuli []int
	// Scales holds one entry per configured agent count, in input order.
	Scales []ScaleReport
}

// Measure runs the coverage harness. Every (scale, trial) pair is one task
// of a single fan-out, so the workers stay busy across scales.
func Measure(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	annuli := cfg.annuli()
	algs := make([]agent.Algorithm, len(cfg.Scales))
	for si, k := range cfg.Scales {
		if algs[si] = cfg.Factory(k); algs[si] == nil {
			return nil, errors.New("lowerbound: factory returned a nil algorithm")
		}
	}

	// The treasure is unreachable within the horizon by construction, so the
	// simulation runs every agent for the full budget.
	treasure := grid.Point{X: cfg.Horizon + 1}

	type trialOut struct {
		perAgent    float64
		annulusPer  []float64
		annulusFrac []float64
		overlap     float64
	}
	outs, err := parallel.Map(ctx, len(cfg.Scales)*cfg.Trials, cfg.Workers, func(task int) (trialOut, error) {
		si, trial := task/cfg.Trials, task%cfg.Trials
		k := cfg.Scales[si]
		cov := metrics.NewCoverage(k)
		inst := sim.Instance{Algorithm: algs[si], NumAgents: k, Treasure: treasure}
		opts := sim.Options{
			Seed:    xrand.DeriveSeed(cfg.Seed, uint64(si), uint64(trial)),
			MaxTime: cfg.Horizon,
		}
		if _, err := sim.RunExact(inst, opts, cov.Visit); err != nil {
			return trialOut{}, fmt.Errorf("lowerbound: scale k=%d: %w", k, err)
		}
		visited, perAgent := cov.Annuli(annuli)
		out := trialOut{
			perAgent:    cov.MeanDistinctNodesPerAgent(),
			annulusPer:  perAgent,
			annulusFrac: make([]float64, len(annuli)),
			overlap:     cov.OverlapFraction(),
		}
		inner := 0
		for ai, outer := range annuli {
			if size := grid.BallSize(outer) - grid.BallSize(inner); size > 0 {
				out.annulusFrac[ai] = float64(visited[ai]) / float64(size)
			}
			inner = outer
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	report := &Report{Annuli: annuli, Scales: make([]ScaleReport, len(cfg.Scales))}
	for si, k := range cfg.Scales {
		sr := ScaleReport{
			K:               k,
			Horizon:         cfg.Horizon,
			AnnulusPerAgent: make([]float64, len(annuli)),
			AnnulusCovered:  make([]float64, len(annuli)),
		}
		var perAgentAcc stats.Accumulator
		for _, o := range outs[si*cfg.Trials : (si+1)*cfg.Trials] {
			perAgentAcc.Add(o.perAgent)
			sr.Overlap += o.overlap / float64(cfg.Trials)
			for ai := range annuli {
				sr.AnnulusPerAgent[ai] += o.annulusPer[ai] / float64(cfg.Trials)
				sr.AnnulusCovered[ai] += o.annulusFrac[ai] / float64(cfg.Trials)
			}
		}
		sr.PerAgentDistinct = perAgentAcc.Summarize()
		report.Scales[si] = sr
	}
	return report, nil
}

// DivergenceSeries computes the textbook quantity from the Theorem 4.1 proof:
// given measured competitive ratios φ(k_i) for the scales, it returns the
// partial sums Σ_{i≤n} 1/φ(k_i). If the ratios were O(log k) the series would
// diverge like log log; the measured ratios of any correct uniform algorithm
// must instead keep the series convergent (bounded).
func DivergenceSeries(ratios []float64) []float64 {
	out := make([]float64, len(ratios))
	sum := 0.0
	for i, r := range ratios {
		if r > 0 {
			sum += 1 / r
		}
		out[i] = sum
	}
	return out
}

// LogSeriesReference returns the same partial sums a hypothetical
// φ(k) = c·log₂(k) algorithm would produce on the given scales, for
// comparison with DivergenceSeries.
func LogSeriesReference(scales []int, c float64) []float64 {
	out := make([]float64, len(scales))
	sum := 0.0
	for i, k := range scales {
		l := math.Log2(float64(k))
		if l > 0 && c > 0 {
			sum += 1 / (c * l)
		}
		out[i] = sum
	}
	return out
}
