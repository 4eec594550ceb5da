package sim

// Property test for the order-preserving shard merge at the TrialStats level:
// ANY partition of a trial sequence into contiguous shards of at most
// stats.MergeReplayCap trials, accumulated per shard and merged in shard
// order, must produce TrialStats bit-identical to the sequential fold over
// the same per-trial results — counts, means, variances, extremes and the
// full quantile-sketch state. This is the property that frees the shard
// planner to consult the worker count: the partition cannot show up in the
// output.

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"antsearch/internal/core"
	"antsearch/internal/stats"
)

func TestTrialStatsPartitionInvariance(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewSource(4242))
	for _, trials := range []int{1, 2, 9, 64, 257, 1500} {
		cfg := TrialConfig{
			Factory:   core.Factory(),
			NumAgents: 3,
			Distance:  8,
			Trials:    trials,
			Seed:      uint64(77 + trials),
			MaxTime:   4000,
		}
		results, err := MonteCarloResults(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		seq := NewTrialAccumulator(cfg.NumAgents, cfg.Distance)
		for _, r := range results {
			seq.Add(r)
		}
		want := seq.Stats()

		// The engine's own plan must land on the same bits as the sequential
		// fold, whatever planShards chose for this machine.
		st, err := MonteCarlo(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, want) {
			t.Errorf("trials=%d: MonteCarlo differs from sequential fold:\n got %+v\nwant %+v",
				trials, st, want)
		}

		// Random contiguous partitions into shards Merge can replay.
		for round := 0; round < 25; round++ {
			merged := NewTrialAccumulator(cfg.NumAgents, cfg.Distance)
			for lo := 0; lo < trials; {
				hi := lo + 1 + rng.Intn(stats.MergeReplayCap)
				if hi > trials {
					hi = trials
				}
				shard := NewTrialAccumulator(cfg.NumAgents, cfg.Distance)
				for _, r := range results[lo:hi] {
					shard.Add(r)
				}
				merged.Merge(shard)
				lo = hi
			}
			if !reflect.DeepEqual(merged.Stats(), want) {
				t.Errorf("trials=%d round=%d: partitioned merge differs from sequential fold:\n got %+v\nwant %+v",
					trials, round, merged.Stats(), want)
			}
		}
	}
}

// TestTrialAccumulatorMergePanicsPastReplayCap pins Merge's refusal to
// approximate: a source holding more trials than its log can replay is a
// programming error, not a merge with a different answer.
func TestTrialAccumulatorMergePanicsPastReplayCap(t *testing.T) {
	t.Parallel()

	big := NewTrialAccumulator(1, 4)
	for i := 0; i <= stats.MergeReplayCap; i++ {
		big.Add(Result{Found: true, Time: 1 + i%7, Survivors: 1, Distance: 4, LowerBound: 20})
	}
	defer func() {
		if recover() == nil {
			t.Error("Merge of a source with MergeReplayCap+1 trials did not panic")
		}
	}()
	NewTrialAccumulator(1, 4).Merge(big)
}

// TestPlanShardsInvariants pins the planner's contract over a spread of
// (trials, workers) shapes, including far beyond the historical 2^20-trial
// fixed-partition regime: at least one shard; no shard ever exceeds
// stats.MergeReplayCap trials (the hard bound that keeps the merge
// order-preserving, and what lets MonteCarlo's ordered streaming reduce stay
// replay-exact at every scale), none dips below the minimum batch, and every
// worker gets a shard when the trials fill the minimum batch of each:
// at least min(workers, trials/MinShardTrials) shards, odd counts included.
func TestPlanShardsInvariants(t *testing.T) {
	t.Parallel()

	workersList := []int{0, 1, 2, 3, 4, 8, 32, 256}
	for _, trials := range []int{1, 7, 8, 9, 12, 17, 33, 63, 64, 100, 999, 1023, 1024, 1025, 5000, 100000,
		1024 * stats.MergeReplayCap, 1024*stats.MergeReplayCap + 1, 5000 * stats.MergeReplayCap} {
		for _, workers := range workersList {
			shards := planShards(trials, workers)
			if shards < 1 {
				t.Fatalf("trials=%d workers=%d: %d shards", trials, workers, shards)
			}
			cores := workers
			if cores == 0 {
				cores = runtime.GOMAXPROCS(0)
			}
			if wantShards := min(cores, trials/MinShardTrials); shards < wantShards {
				t.Errorf("trials=%d workers=%d: %d shards, want at least %d (one per worker)",
					trials, workers, shards, wantShards)
			}
			maxSize, minSize := 0, trials+1
			for s := 0; s < shards; s++ {
				lo, hi := shardRange(trials, shards, s)
				if size := hi - lo; size > 0 {
					if size > maxSize {
						maxSize = size
					}
					if size < minSize {
						minSize = size
					}
				}
			}
			if maxSize > stats.MergeReplayCap {
				t.Errorf("trials=%d workers=%d: shard of %d trials exceeds the replay cap %d",
					trials, workers, maxSize, stats.MergeReplayCap)
			}
			wantMin := MinShardTrials
			if trials < wantMin {
				wantMin = trials
			}
			if minSize < wantMin {
				t.Errorf("trials=%d workers=%d: shard of %d trials is below the minimum batch %d",
					trials, workers, minSize, wantMin)
			}
		}
	}
	// Beyond the historical 1024-shard pin the planner must keep splitting:
	// enough shards that every one fits the replay cap, never a capped
	// count that would force shards past it.
	beyond := 1024*stats.MergeReplayCap + 1
	for _, workers := range workersList {
		got := planShards(beyond, workers)
		if wantMin := (beyond + stats.MergeReplayCap - 1) / stats.MergeReplayCap; got < wantMin {
			t.Errorf("beyond 2^20 trials: planShards(%d, %d) = %d shards, need at least %d to keep every shard replay-exact",
				beyond, workers, got, wantMin)
		}
	}
}
