package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"antsearch/internal/baseline"
	"antsearch/internal/core"
	"antsearch/internal/stats"
)

// referenceAggregate is the pre-streaming aggregation: it folds materialized
// per-trial results into TrialStats-shaped numbers the straightforward way,
// with O(trials) memory. The streaming engine must reproduce it.
type referenceAggregate struct {
	found, capped  int
	time, all, rat stats.Accumulator
	times          []float64
	foundTimes     []float64
}

func referenceOf(results []Result) referenceAggregate {
	var ref referenceAggregate
	for _, r := range results {
		if r.Found {
			ref.found++
			ref.time.Add(float64(r.Time))
			ref.foundTimes = append(ref.foundTimes, float64(r.Time))
		}
		if r.Capped {
			ref.capped++
		}
		ref.all.Add(float64(r.Time))
		ref.rat.Add(r.CompetitiveRatio())
		ref.times = append(ref.times, float64(r.Time))
	}
	return ref
}

// TestStreamingMatchesReferenceAggregate checks that MonteCarlo's sharded
// streaming aggregation reproduces the exact fold over the raw per-trial
// results on identical seeds: counts, means, variances, extremes and — while
// the trial count fits the exact sketch — medians, bit for bit.
func TestStreamingMatchesReferenceAggregate(t *testing.T) {
	t.Parallel()

	for _, trials := range []int{1, 7, 40, 333} {
		cfg := TrialConfig{
			Factory:   core.Factory(),
			NumAgents: 3,
			Distance:  12,
			Trials:    trials,
			Seed:      41,
			MaxTime:   4000,
		}
		raw, err := MonteCarloResults(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceOf(raw)
		st, err := MonteCarlo(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		if st.Trials != trials || st.Found != ref.found || st.Capped != ref.capped {
			t.Errorf("trials=%d: counts differ: got (%d, %d, %d), want (%d, %d, %d)",
				trials, st.Trials, st.Found, st.Capped, trials, ref.found, ref.capped)
		}
		if st.AllTime != ref.all.Summarize() {
			t.Errorf("trials=%d: AllTime differs:\n got %+v\nwant %+v", trials, st.AllTime, ref.all.Summarize())
		}
		if st.Time != ref.time.Summarize() {
			t.Errorf("trials=%d: Time differs:\n got %+v\nwant %+v", trials, st.Time, ref.time.Summarize())
		}
		if st.Ratio != ref.rat.Summarize() {
			t.Errorf("trials=%d: Ratio differs:\n got %+v\nwant %+v", trials, st.Ratio, ref.rat.Summarize())
		}
		if got, want := st.MedianTime(), stats.Quantile(ref.times, 0.5); got != want {
			t.Errorf("trials=%d: median %v, want exact %v", trials, got, want)
		}
		if got, want := st.MedianFoundTime(), stats.Quantile(ref.foundTimes, 0.5); got != want {
			t.Errorf("trials=%d: found median %v, want exact %v", trials, got, want)
		}
	}
}

// TestStreamingLargeRunStaysBounded drives the engine past the exact sketch
// cap and the one-trial-per-shard regime: counts, means and extremes must
// still match the reference fold exactly, and the P² median must land within
// a small relative tolerance of the exact median.
func TestStreamingLargeRunStaysBounded(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("large streaming run")
	}

	cfg := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 4,
		Distance:  4,
		Trials:    5000, // several shards per worker and > the exact sketch cap
		Seed:      9,
		MaxTime:   400,
	}
	raw, err := MonteCarloResults(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceOf(raw)
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if st.Trials != cfg.Trials || st.Found != ref.found || st.Capped != ref.capped {
		t.Errorf("counts differ: got (%d, %d, %d), want (%d, %d, %d)",
			st.Trials, st.Found, st.Capped, cfg.Trials, ref.found, ref.capped)
	}
	refAll := ref.all.Summarize()
	if st.AllTime.N != refAll.N || st.AllTime.Min != refAll.Min || st.AllTime.Max != refAll.Max {
		t.Errorf("count/extremes differ: %+v vs %+v", st.AllTime, refAll)
	}
	if math.Abs(st.AllTime.Mean-refAll.Mean) > 1e-9*math.Abs(refAll.Mean) {
		t.Errorf("merged mean %v differs from sequential %v", st.AllTime.Mean, refAll.Mean)
	}
	if st.TimeQuantiles.Exact {
		t.Error("5000 trials should have left the exact sketch")
	}
	exactMedian := stats.Quantile(ref.times, 0.5)
	if exactMedian > 0 {
		if rel := math.Abs(st.MedianTime()-exactMedian) / exactMedian; rel > 0.05 {
			t.Errorf("P² median %v off exact %v by %.1f%%", st.MedianTime(), exactMedian, 100*rel)
		}
	}
}

// TestStreamingShardInvariance is the shard-count-invariance property test:
// the shard partition depends only on the trial count, so any worker count —
// which is the only scheduling knob — must produce identical statistics,
// including the quantile state, across a spread of trial counts.
func TestStreamingShardInvariance(t *testing.T) {
	t.Parallel()

	for _, trials := range []int{1, 13, 64, 200} {
		base := TrialConfig{
			Factory:   core.Factory(),
			NumAgents: 2,
			Distance:  8,
			Trials:    trials,
			Seed:      uint64(1000 + trials),
			MaxTime:   4000,
		}
		var first TrialStats
		for i, workers := range []int{1, 2, 3, 8, 32} {
			cfg := base
			cfg.Workers = workers
			st, err := MonteCarlo(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = st
				continue
			}
			if !reflect.DeepEqual(st, first) {
				t.Errorf("trials=%d: stats with %d workers differ from 1 worker:\n%+v\nvs\n%+v",
					trials, workers, st, first)
			}
		}
	}
}

// TestStreamingBeyondReplayPinWorkerInvariance crosses the 2^20-trial
// boundary where the planner historically pinned a fixed 1024-shard partition
// (forcing shards past the 1024 trials a merge can replay). With the ordered
// streaming reduce the plan exceeds 1024 shards, every shard stays
// replay-exact, and the aggregate must be bit-identical across worker counts
// even at this scale.
// The single-spiral baseline with one agent and a tiny cap keeps the >10^6
// engine runs cheap: the deterministic searcher either hits the near treasure
// on the first spiral arm or parks at the cap within a few segments.
func TestStreamingBeyondReplayPinWorkerInvariance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("million-trial streaming run")
	}

	trials := 1024*stats.MergeReplayCap + 3
	if planShards(trials, 1) <= 1024 {
		t.Fatalf("planShards(%d, 1) = %d, expected the plan to exceed the historical 1024-shard pin",
			trials, planShards(trials, 1))
	}
	base := TrialConfig{
		Factory:   baseline.SingleSpiralFactory(),
		NumAgents: 1,
		Distance:  2,
		Trials:    trials,
		Seed:      17,
		MaxTime:   64,
	}
	var first TrialStats
	for i, workers := range []int{1, 3} {
		cfg := base
		cfg.Workers = workers
		st, err := MonteCarlo(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trials != trials {
			t.Fatalf("workers=%d: aggregated %d trials, want %d", workers, st.Trials, trials)
		}
		if i == 0 {
			first = st
			continue
		}
		if !reflect.DeepEqual(st, first) {
			t.Errorf("stats with %d workers differ from 1 worker beyond the replay pin:\n%+v\nvs\n%+v",
				workers, st, first)
		}
	}
}

// TestTrialAccumulatorMergeOrder checks that merging shard accumulators in
// shard order equals accumulating the concatenated trial sequence when every
// shard holds one trial (the regime the engine uses for small runs).
func TestTrialAccumulatorMergeOrder(t *testing.T) {
	t.Parallel()

	results := []Result{
		{Found: true, Time: 10, Distance: 4, LowerBound: 8},
		{Found: true, Time: 30, Distance: 4, LowerBound: 8},
		{Found: false, Time: 100, Capped: true, Distance: 4, LowerBound: 8},
		{Found: true, Time: 7, Distance: 4, LowerBound: 8},
	}
	seq := NewTrialAccumulator(2, 4)
	for _, r := range results {
		seq.Add(r)
	}
	merged := NewTrialAccumulator(2, 4)
	for _, r := range results {
		shard := NewTrialAccumulator(2, 4)
		shard.Add(r)
		merged.Merge(shard)
	}
	if !reflect.DeepEqual(seq.Stats(), merged.Stats()) {
		t.Errorf("merged stats differ from sequential:\n%+v\nvs\n%+v", merged.Stats(), seq.Stats())
	}
	st := seq.Stats()
	if st.Found != 3 || st.Capped != 1 || st.Trials != 4 {
		t.Errorf("counts: %+v", st)
	}
	if st.MedianFoundTime() != 10 {
		t.Errorf("found median = %v, want 10", st.MedianFoundTime())
	}
}
