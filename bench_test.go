package antsearch_test

// This file contains one testing.B benchmark per reproduction experiment
// (E1–E11, see DESIGN.md §4). Each benchmark runs the
// corresponding experiment at quick scale per iteration, so
//
//	go test -bench=. -benchmem
//
// regenerates every table/series of the reproduction (at reduced sweep sizes;
// use cmd/antexperiments -scale standard for the full tables) and reports how
// long each takes. Additional micro-benchmarks cover the simulation engines
// themselves, so regressions in the substrate show up independently of the
// experiment definitions.

import (
	"context"
	"fmt"
	"testing"

	"antsearch"
	"antsearch/internal/experiments"
	"antsearch/internal/sim"
)

// benchExperiment runs one registered experiment per iteration and fails the
// benchmark if the experiment errors or a reproduction check fails.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exp.Run(ctx, experiments.Config{Seed: uint64(i) + 1, Scale: experiments.Quick})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		// A failed shape check on a single seed is reported but does not
		// abort the benchmark: quick-scale sweeps are intentionally noisy
		// and the authoritative pass/fail gate is cmd/antexperiments at
		// standard scale (see DESIGN.md §4).
		for _, c := range out.Checks {
			if !c.Pass {
				b.Logf("%s check %s failed: %s", id, c.Name, c.Detail)
			}
		}
	}
}

// BenchmarkE1KnownKOptimal regenerates E1 (Theorem 3.1): KnownK vs D + D²/k.
func BenchmarkE1KnownKOptimal(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2RhoApprox regenerates E2 (Corollary 3.2): ρ-approximation cost.
func BenchmarkE2RhoApprox(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3UniformCompetitive regenerates E3 (Theorem 3.3): O(log^(1+ε) k).
func BenchmarkE3UniformCompetitive(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4UniformLowerBound regenerates E4 (Theorem 4.1): not O(log k).
func BenchmarkE4UniformLowerBound(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5ApproxLowerBound regenerates E5 (Theorem 4.2): Ω(ε·log k).
func BenchmarkE5ApproxLowerBound(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Harmonic regenerates E6 (Theorem 5.1): harmonic threshold.
func BenchmarkE6Harmonic(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Baselines regenerates E7: baseline comparison.
func BenchmarkE7Baselines(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Speedup regenerates E8: speed-up curves.
func BenchmarkE8Speedup(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Overlap regenerates E9: overlap/crowding analysis.
func BenchmarkE9Overlap(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Ablation regenerates E10: ε and δ ablations.
func BenchmarkE10Ablation(b *testing.B) { benchExperiment(b, "E10") }

// --- Engine micro-benchmarks --------------------------------------------------

// BenchmarkAnalyticEngineKnownK measures a single analytic-engine run of the
// optimal algorithm on a mid-sized instance.
func BenchmarkAnalyticEngineKnownK(b *testing.B) {
	alg, err := antsearch.KnownK(64)
	if err != nil {
		b.Fatal(err)
	}
	treasure := antsearch.Point{X: 180, Y: 76}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := antsearch.Search(alg, 64, treasure, antsearch.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("treasure not found")
		}
	}
}

// BenchmarkAnalyticEngineUniform measures a single analytic-engine run of the
// uniform algorithm (the most segment-hungry of the paper's algorithms).
func BenchmarkAnalyticEngineUniform(b *testing.B) {
	alg, err := antsearch.Uniform(0.5)
	if err != nil {
		b.Fatal(err)
	}
	treasure := antsearch.Point{X: 180, Y: 76}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := antsearch.Search(alg, 64, treasure, antsearch.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("treasure not found")
		}
	}
}

// BenchmarkExactEngineKnownK measures the cell-level engine (with coverage
// recording) on a small instance, the workhorse of E4 and E9.
func BenchmarkExactEngineKnownK(b *testing.B) {
	alg, err := antsearch.KnownK(8)
	if err != nil {
		b.Fatal(err)
	}
	treasure := antsearch.Point{X: 20, Y: 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := antsearch.SearchWithTrace(alg, 8, treasure, antsearch.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Result.Found {
			b.Fatal("treasure not found")
		}
	}
}

// BenchmarkMonteCarloEstimate measures the parallel Monte-Carlo estimator used
// by every experiment cell.
func BenchmarkMonteCarloEstimate(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := antsearch.EstimateTime(ctx, antsearch.KnownKFactory(), 16, 64,
			antsearch.WithSeed(uint64(i)), antsearch.WithTrials(16))
		if err != nil {
			b.Fatal(err)
		}
		if est.Found != est.Trials {
			b.Fatal("known-k failed to find the treasure in some trial")
		}
	}
}

// BenchmarkSweepEngine measures the streaming sweep hot path at growing
// trial counts. With b.ReportAllocs the per-trial allocation rate
// (allocs/op divided by the reported trials/op metric) must stay flat as the
// trial count grows: the engine folds each shard's results into one running
// accumulator in trial order, holding at most O(workers) shards' results at
// a time, and never materializes an O(trials) result slice.
// BENCH_sweep.json records the baseline.
//
// The small counts (1, 8, 64) are the dense-parameter-grid regime — an
// antserve dashboard sweep is thousands of cells of this shape — and the one
// the batched shard planner exists for; the large counts exercise the
// per-trial steady state. Both are gated in CI: allocs/op against
// max_allocs_per_op and ns/op against 1.25 × the recorded baseline.
func BenchmarkSweepEngine(b *testing.B) {
	for _, trials := range []int{1, 8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			benchSweep(b, antsearch.KnownKFactory(), trials, 0)
		})
	}
	// Per-algorithm variants at a fixed mid-sized trial count: the sortie
	// batch the engine pulls per interface call differs per searcher (three
	// segments for the paper's algorithms, chunked runs for the step-wise
	// baselines), so each variant guards a different emission path. Resolved
	// through the scenario registry, like a sweep would.
	for _, v := range []struct {
		name    string
		params  antsearch.ScenarioParams
		trials  int
		maxTime int
	}{
		{"known-k", antsearch.ScenarioParams{}, 512, 0},
		{"uniform", antsearch.ScenarioParams{Epsilon: 0.5}, 512, 0},
		{"harmonic", antsearch.ScenarioParams{Delta: 0.5}, 512, 1 << 20},
		{"single-spiral", antsearch.ScenarioParams{}, 512, 0},
		// Lévy trials that miss run until the cap in short power-law legs, so
		// this variant uses a tight cap and fewer trials to stay CI-sized
		// while still measuring the leg-batched emission path.
		{"levy", antsearch.ScenarioParams{Mu: 2}, 64, 1 << 12},
	} {
		factory, err := antsearch.ScenarioFactory(v.name, v.params)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("alg=%s/trials=%d", v.name, v.trials), func(b *testing.B) {
			benchSweep(b, factory, v.trials, v.maxTime)
		})
	}
}

// benchSweep is the body shared by every BenchmarkSweepEngine variant: one
// EstimateTime sweep per iteration at k=4, d=8, reporting trials/op so the
// per-trial allocation rate can be derived from allocs/op.
func benchSweep(b *testing.B, factory antsearch.Factory, trials, maxTime int) {
	ctx := context.Background()
	// Room for the per-iteration seed option, so the append below reuses the
	// backing array instead of allocating inside the measured loop.
	opts := make([]antsearch.Option, 0, 3)
	opts = append(opts, antsearch.WithTrials(trials))
	if maxTime > 0 {
		opts = append(opts, antsearch.WithMaxTime(maxTime))
	}
	// One untimed sweep at seed 0, which the loop below never uses, fills
	// what the first sweep of a process allocates once, so B/op reads the
	// steady state rather than whether that allocation lands in the timed
	// iterations.
	if _, err := antsearch.EstimateTime(ctx, factory, 4, 8, append(opts, antsearch.WithSeed(0))...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := antsearch.EstimateTime(ctx, factory, 4, 8,
			append(opts, antsearch.WithSeed(uint64(i)+1))...)
		if err != nil {
			b.Fatal(err)
		}
		if est.Trials != trials {
			b.Fatalf("ran %d trials, want %d", est.Trials, trials)
		}
	}
	b.ReportMetric(float64(trials), "trials/op")
}

// BenchmarkTrialAccumulator measures the pure aggregation cost per trial
// result, independent of the simulator.
func BenchmarkTrialAccumulator(b *testing.B) {
	acc := sim.NewTrialAccumulator(4, 8)
	r := sim.Result{Found: true, Time: 42, Distance: 8, LowerBound: 24}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Time = 40 + i%17
		acc.Add(r)
	}
}
