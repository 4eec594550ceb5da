package sim

// Allocation-regression tests for the trial hot path. The engine's guarantee
// is O(1) allocations per shard rather than per trial: agent slots, heap
// storage, random streams and (through NewSearcher's build-or-reset) searchers
// are all reset in place between trials. These tests pin the amortized per-trial
// allocation rate for a representative non-uniform (known-k) and uniform
// one-shot (harmonic) cell, so a regression — a new per-segment box, a
// searcher that stops being reusable, a stream that reallocates — fails
// loudly here instead of surfacing as a slow drift in BENCH_sweep.json.

import (
	"context"
	"testing"

	"antsearch/internal/core"
)

// allocsPerTrial measures the amortized allocations per trial of runShard on
// a single warm shard of the given width.
func allocsPerTrial(t *testing.T, cfg TrialConfig, trials int) float64 {
	t.Helper()
	alg := cfg.Factory(cfg.NumAgents)
	if alg == nil {
		t.Fatal("factory returned nil")
	}
	ctx := context.Background()
	// Warm the engine pool so the measurement sees the steady state.
	if _, err := runShard(ctx, cfg, alg, 0, trials); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := runShard(ctx, cfg, alg, 0, trials); err != nil {
			t.Fatal(err)
		}
	})
	return allocs / float64(trials)
}

func TestAllocsPerTrialKnownK(t *testing.T) {
	cfg := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 4,
		Distance:  8,
		Trials:    64,
		Seed:      3,
	}
	// Budget: the accumulator's sketch appends amortize to ~1 per trial and
	// everything else is reused. The pre-refactor engine sat at ~151.
	const budget = 4.0
	if got := allocsPerTrial(t, cfg, 64); got > budget {
		t.Errorf("known-k cell allocates %.2f times per trial, budget %.1f", got, budget)
	}
}

func TestAllocsPerTrialHarmonic(t *testing.T) {
	factory, err := core.HarmonicFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrialConfig{
		Factory:   factory,
		NumAgents: 8,
		Distance:  4,
		Trials:    64,
		Seed:      3,
		MaxTime:   1 << 20,
	}
	const budget = 4.0
	if got := allocsPerTrial(t, cfg, 64); got > budget {
		t.Errorf("harmonic cell allocates %.2f times per trial, budget %.1f", got, budget)
	}
}
