package sim

import (
	"context"
	"errors"
	"fmt"

	"antsearch/internal/agent"
	"antsearch/internal/parallel"
	"antsearch/internal/xrand"
)

// MonteCarloResults runs the trials like MonteCarlo but returns the raw
// per-trial results (in trial order) instead of an aggregate. It is the
// per-trial reference of the golden, partition and fault tests: each trial
// runs on its own through Run, with no shard, pool or fold in between.
func MonteCarloResults(ctx context.Context, cfg TrialConfig) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alg := cfg.Factory(cfg.NumAgents)
	if alg == nil {
		return nil, errors.New("sim: factory returned a nil algorithm")
	}
	results, err := parallel.Map(ctx, cfg.Trials, cfg.Workers, func(trial int) (Result, error) {
		return runTrial(cfg, alg, trial)
	})
	if err != nil {
		return nil, fmt.Errorf("sim: monte carlo: %w", err)
	}
	return results, nil
}

// runTrial executes one trial of the configuration. Per-trial randomness is
// derived from the base seed and the trial index alone, so any sharding of
// the trial range reproduces identical per-trial results.
func runTrial(cfg TrialConfig, alg agent.Algorithm, trial int) (Result, error) {
	inst := Instance{
		Algorithm: alg,
		NumAgents: cfg.NumAgents,
		Treasure:  xrand.NewStream(cfg.Seed, xrand.PathPlacement, uint64(trial)).UniformRingPoint(cfg.Distance),
		Faults:    cfg.Faults,
	}
	return Run(inst, Options{
		Seed:    xrand.DeriveSeed(cfg.Seed, xrand.PathTrial, uint64(trial)),
		MaxTime: cfg.MaxTime,
	})
}

// must returns v, panicking on err: the tests build algorithms from
// constructor arguments they state literally, so an error is a bug in the
// test itself.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
