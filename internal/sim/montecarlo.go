package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"antsearch/internal/agent"
	"antsearch/internal/fault"
	"antsearch/internal/parallel"
	"antsearch/internal/stats"
	"antsearch/internal/xrand"
)

// TrialConfig describes a Monte-Carlo estimation of the expected running time
// of an algorithm on instances with a fixed number of agents and a fixed
// treasure distance.
type TrialConfig struct {
	// Factory supplies the algorithm; it receives the true number of agents
	// and decides (by construction) how much of that information reaches the
	// agents.
	Factory agent.Factory
	// NumAgents is the true number of agents k.
	NumAgents int
	// Distance is the treasure distance D: every trial places the treasure
	// uniformly at random on the L1 ring of radius D around the source,
	// drawn from the trial's placement stream (seed, PathPlacement, trial).
	// The paper's algorithms are direction-symmetric, so this averages over
	// every placement at distance D.
	Distance int
	// Trials is the number of independent simulations.
	Trials int
	// Seed is the base seed; each trial derives its own streams from it.
	Seed uint64
	// MaxTime caps each trial (0 = DefaultMaxTime).
	MaxTime int
	// Workers bounds the number of goroutines used (0 = GOMAXPROCS).
	Workers int
	// Faults, when non-nil and non-zero, applies the fault model to every
	// trial (see fault.Plan). Schedules derive from (seed, trial, agent)
	// alone, so faulty trials shard and fold as deterministically as
	// fault-free ones.
	Faults *fault.Plan
	// Progress, when non-nil, is called after each folded shard (throttled by
	// ProgressEvery) with the running aggregate — on MonteCarlo's own
	// goroutine, which does the folding, so callbacks for one run never race.
	// A nil hook costs the hot path nothing.
	Progress func(Progress)
	// ProgressEvery throttles Progress to every N folded shards (the final
	// shard always reports). Zero or negative selects an automatic ~1%
	// stride, which is every shard below 256 shards.
	ProgressEvery int
	// Checkpointer, when non-nil, makes the run resumable: the running prefix
	// aggregate is persisted every CheckpointEvery shards, and on start the
	// longest valid persisted prefix seeds the fold so only the remaining
	// trials are computed. Resumed runs finish with aggregates bit-identical
	// to uninterrupted ones (the fold adds trials in order, so the prefix
	// state is a pure function of the trial prefix). Save failures never
	// fail the run.
	Checkpointer Checkpointer
	// CheckpointEvery is the shard interval between persisted checkpoints
	// (0 = DefaultCheckpointEvery; meaningful only with a Checkpointer).
	CheckpointEvery int
}

// Validate reports whether the configuration is usable.
func (c TrialConfig) Validate() error {
	if c.Factory == nil {
		return errors.New("sim: trial config has no algorithm factory")
	}
	if c.NumAgents < 1 {
		return fmt.Errorf("sim: trial config needs at least one agent, got %d", c.NumAgents)
	}
	if c.Distance < 1 {
		return fmt.Errorf("sim: trial config places the treasure at distance %d; "+
			"the competitive ratio is undefined on the source (need D >= 1)", c.Distance)
	}
	if c.Trials < 1 {
		return fmt.Errorf("sim: trial config needs at least one trial, got %d", c.Trials)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TrialStats aggregates the outcomes of the Monte-Carlo trials. It is built
// by streaming accumulators, so its size is bounded by the quantile-sketch
// cap (stats.DefaultSketchCap) rather than by the number of trials: up to the
// cap all quantiles are exact, beyond it they are P² estimates.
//
// The JSON encoding is a stability contract: antserve streams TrialStats in
// NDJSON rows and the durable result store (internal/cache) persists them
// across restarts, so marshal → unmarshal → marshal must be a fixed point
// and a decoded value must answer every derived query identically
// (TestTrialStatsJSONRoundTrip). Changing the encoding means bumping
// cache.StoreSchemaVersion so old stores are skipped, not misread.
type TrialStats struct {
	// Config echoes the inputs that produced these statistics.
	NumAgents int
	Distance  int
	Trials    int

	// Found is the number of trials in which the treasure was found before
	// the cap; Capped is the number that hit the cap.
	Found  int
	Capped int

	// Time summarises the first-hit time over the trials that found the
	// treasure.
	Time stats.Summary
	// AllTime summarises the per-trial time over all trials, counting capped
	// trials at the cap value. When Capped > 0 this is a lower bound on the
	// true expectation.
	AllTime stats.Summary
	// Ratio summarises the per-trial competitive ratio Time/(D + D²/k) over
	// all trials (capped trials counted at the cap).
	Ratio stats.Summary
	// TimeQuantiles holds the per-trial first-hit time distribution over all
	// trials (capped trials at the cap), for medians and tail analyses.
	TimeQuantiles stats.QuantileSummary
	// FoundTimeQuantiles holds the first-hit time distribution over only the
	// trials that found the treasure before the cap.
	FoundTimeQuantiles stats.QuantileSummary
	// Survivors summarises per-trial k′, the number of agents alive at the
	// trial's reported time. Fault-free configurations report the constant k.
	Survivors stats.Summary
	// SurvivorRatio summarises Time/(D + D²/k′), the competitive ratio
	// re-based against the surviving agents (sim.Result.
	// SurvivorCompetitiveRatio); all-crashed trials, whose ratio is NaN,
	// are excluded.
	SurvivorRatio stats.Summary
}

// SuccessRate returns the fraction of trials that found the treasure.
func (s TrialStats) SuccessRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.Found) / float64(s.Trials)
}

// MeanTime returns the mean first-hit time over all trials (capped trials at
// the cap), the estimator used for "expected running time" in the tables.
func (s TrialStats) MeanTime() float64 { return s.AllTime.Mean }

// MedianTime returns the median per-trial time (capped trials at the cap).
func (s TrialStats) MedianTime() float64 { return s.TimeQuantiles.Median() }

// MedianFoundTime returns the median first-hit time over the trials that
// found the treasure before the cap (0 if none did).
func (s TrialStats) MedianFoundTime() float64 { return s.FoundTimeQuantiles.Median() }

// MeanRatio returns the mean competitive ratio.
func (s TrialStats) MeanRatio() float64 { return s.Ratio.Mean }

// MeanSurvivors returns the mean per-trial survivor count k′.
func (s TrialStats) MeanSurvivors() float64 { return s.Survivors.Mean }

// MeanSurvivorRatio returns the mean competitive ratio against the
// surviving-k′ lower bound.
func (s TrialStats) MeanSurvivorRatio() float64 { return s.SurvivorRatio.Mean }

// LowerBound returns D + D²/k for this configuration.
func (s TrialStats) LowerBound() float64 { return LowerBound(s.Distance, s.NumAgents) }

// TrialAccumulator folds per-trial results into streaming statistics in
// bounded memory, and keeps the first stats.MergeReplayCap results it was
// fed, in order, which is what Merge replays. MonteCarlo does not use it: its
// fold adds every trial to one trialState, which needs no log. It serves
// callers that fold shards of their own (antbench's replay probe). The zero
// value is not usable; construct with NewTrialAccumulator.
type TrialAccumulator struct {
	state trialState
	// log holds the first stats.MergeReplayCap results added, in order.
	log []Result
}

// trialState is the running aggregate of a trial fold: the counts, the five
// Welford accumulators and both quantile sketches, which together determine
// every aggregate TrialStats reports. MonteCarlo folds into one directly, and
// its JSON form (checkpoint.go) is what a checkpoint persists.
//
//antlint:codec version=trialAccumulatorStateVersion fields=numAgents,distance,trials,found,capped,time,allTime,ratio,survivors,survivorRatio,times,foundTimes encode=MarshalJSON decode=UnmarshalJSON
type trialState struct {
	numAgents int
	distance  int
	trials    int
	found     int
	capped    int

	time          stats.Accumulator
	allTime       stats.Accumulator
	ratio         stats.Accumulator
	survivors     stats.Accumulator
	survivorRatio stats.Accumulator

	times      *stats.Sketch
	foundTimes *stats.Sketch
}

// newTrialState returns an empty aggregate for a configuration with the
// given number of agents and treasure distance.
func newTrialState(numAgents, distance int) trialState {
	return trialState{
		numAgents:  numAgents,
		distance:   distance,
		times:      stats.NewSketch(0),
		foundTimes: stats.NewSketch(0),
	}
}

// add incorporates one trial result.
func (s *trialState) add(r Result) {
	s.trials++
	if r.Found {
		s.found++
		s.time.Add(float64(r.Time))
		s.foundTimes.Add(float64(r.Time))
	}
	if r.Capped {
		s.capped++
	}
	s.allTime.Add(float64(r.Time))
	if ratio := r.CompetitiveRatio(); !math.IsNaN(ratio) {
		// A NaN ratio marks the degenerate D=0 instance, which the engines
		// reject before any trial runs; excluding it keeps the accumulator
		// well defined even for hand-built Results.
		s.ratio.Add(ratio)
	}
	s.survivors.Add(float64(r.Survivors))
	if sr := r.SurvivorCompetitiveRatio(); !math.IsNaN(sr) {
		// NaN here additionally marks all-crashed trials, whose k′ bound is
		// +Inf; they carry no ratio information.
		s.survivorRatio.Add(sr)
	}
	s.times.Add(float64(r.Time))
}

// snapshot returns the aggregate as a TrialStats value.
func (s *trialState) snapshot() TrialStats {
	return TrialStats{
		NumAgents:          s.numAgents,
		Distance:           s.distance,
		Trials:             s.trials,
		Found:              s.found,
		Capped:             s.capped,
		Time:               s.time.Summarize(),
		AllTime:            s.allTime.Summarize(),
		Ratio:              s.ratio.Summarize(),
		TimeQuantiles:      s.times.Summary(),
		FoundTimeQuantiles: s.foundTimes.Summary(),
		Survivors:          s.survivors.Summarize(),
		SurvivorRatio:      s.survivorRatio.Summarize(),
	}
}

// NewTrialAccumulator returns an empty accumulator for a configuration with
// the given number of agents and treasure distance.
func NewTrialAccumulator(numAgents, distance int) *TrialAccumulator {
	return &TrialAccumulator{state: newTrialState(numAgents, distance)}
}

// Add incorporates one trial result.
func (a *TrialAccumulator) Add(r Result) {
	if len(a.log) < stats.MergeReplayCap {
		a.log = append(a.log, r)
	}
	a.state.add(r)
}

// Merge folds another accumulator into a by replaying b's trials through Add,
// in trial order. Merging shard accumulators in shard order therefore gives
// exactly the state of one accumulator fed every trial in sequence: the
// result depends only on the trial sequence, never on where it was cut.
// Merge panics if b was fed more than stats.MergeReplayCap trials, which its
// log cannot replay.
func (a *TrialAccumulator) Merge(b *TrialAccumulator) {
	if b.state.trials > len(b.log) {
		panic(fmt.Sprintf("sim: merging an accumulator of %d trials whose log replays only %d",
			b.state.trials, len(b.log)))
	}
	for _, r := range b.log {
		a.Add(r)
	}
}

// Stats snapshots the accumulator into a TrialStats value.
func (a *TrialAccumulator) Stats() TrialStats { return a.state.snapshot() }

// MinShardTrials is the smallest batch of trials worth scheduling as an
// independent shard: below it the per-shard fixed costs (result slice,
// engine pool round-trip, task claim) dominate the trials themselves. A run
// of at least workers × MinShardTrials trials gives every worker a shard.
const MinShardTrials = 8

// shardRange returns the half-open trial range [lo, hi) of shard s when
// trials are split into numShards contiguous, near-equal shards.
func shardRange(trials, numShards, s int) (lo, hi int) {
	lo = s * trials / numShards
	hi = (s + 1) * trials / numShards
	return lo, hi
}

// planShards is the shard planner: it returns the number of contiguous,
// near-equal shards a trial range is split into. Every worker gets one
// shard, as long as each shard keeps at least MinShardTrials trials
// (min(workers, trials/MinShardTrials) shards, at least one); then, if a
// shard would still exceed stats.MergeReplayCap trials, the range is split
// into as many shards as keep every one within the cap.
//
// Shards are scheduling only. The fold adds every trial's Result to one
// accumulator in trial order, so neither the partition nor the worker count
// is observable in the aggregate — proven by
// TestTrialStatsPartitionInvariance and TestStreamingShardInvariance. The
// cap of stats.MergeReplayCap trials per shard puts a floor under the plan
// (a 1025-trial cell folds as at least two shards, even on one worker) and
// bounds the results in flight: the ordered streaming reduce in MonteCarlo
// holds O(workers) shards' []Result at a time, so memory stays bounded
// however many shards a huge run plans (about trials / stats.MergeReplayCap).
func planShards(trials, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := max(min(workers, trials/MinShardTrials), 1)
	if (trials+shards-1)/shards > stats.MergeReplayCap {
		shards = (trials + stats.MergeReplayCap - 1) / stats.MergeReplayCap
	}
	return shards
}

// enginePool recycles engines — their agent slots, heap storage, segment
// buffers and searchers — across shards, cells and single Run/RunExact calls,
// so steady state serves every shard of every concurrent sweep from a handful
// of engines per worker goroutine. Engines carry no results, only scratch
// state, and reset re-derives everything from (seed, trial), so reuse cannot
// leak state between trials.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

// runShard executes the contiguous trial range [lo, hi) with one pooled
// engine and returns the results in trial order. All per-trial state — agent
// slots, heap storage, per-agent and placement streams — is reset in place
// between trials, so the engine-level allocation cost is O(1) per shard, not
// per trial, and searchers reset in place bring even the searcher
// allocations down to pool-miss-only. Every trial's randomness still derives
// from (seed, trial) alone, so the per-trial results are independent of the
// sharding.
func runShard(ctx context.Context, cfg TrialConfig, alg agent.Algorithm, lo, hi int) ([]Result, error) {
	results := make([]Result, 0, hi-lo)
	e := enginePool.Get().(*engine)
	defer enginePool.Put(e)
	inst := Instance{Algorithm: alg, NumAgents: cfg.NumAgents, Faults: cfg.Faults}
	opts := Options{MaxTime: cfg.MaxTime}
	for trial := lo; trial < hi; trial++ {
		if err := ctx.Err(); err != nil {
			// Batched shards run many trials per task; observe cancellation
			// between trials, not only between shards.
			return nil, err
		}
		e.placeRNG.Reset(cfg.Seed, xrand.PathPlacement, uint64(trial))
		inst.Treasure = e.placeRNG.UniformRingPoint(cfg.Distance)
		opts.Seed = xrand.DeriveSeed(cfg.Seed, xrand.PathTrial, uint64(trial))
		r, err := e.runLoop(inst, opts, nil)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// MonteCarlo runs the configured number of independent trials, batched into
// contiguous shards by planShards, fanned out over goroutines, and folded by
// an ordered streaming reduce: each shard's results are added to one running
// accumulator in strict trial order the moment they become foldable, with
// only O(workers) shards in flight (parallel.ReduceOrdered), so memory is
// independent of the trial count. The aggregate is the sequential fold of
// the per-trial results in trial order, and per-trial randomness derives
// from (seed, trial) alone, so it is identical bit for bit whatever the
// worker count or shard plan — and whatever prefix a checkpoint resumed
// from.
func MonteCarlo(ctx context.Context, cfg TrialConfig) (TrialStats, error) {
	if err := cfg.Validate(); err != nil {
		return TrialStats{}, err
	}
	alg := cfg.Factory(cfg.NumAgents)
	if alg == nil {
		return TrialStats{}, errors.New("sim: factory returned a nil algorithm")
	}

	// The fold state lives in one struct captured by the closures below, so
	// the no-hook path allocates exactly what the pre-progress engine did:
	// one escaped variable, whatever the number of fields.
	st := foldState{cfg: &cfg}
	st.resume()
	// Plan the trials still to run, [done, Trials). A fresh run plans every
	// trial; a resumed one continues the shard numbering of its checkpoint.
	done := st.total.trials
	rest := cfg.Trials - done
	shards := planShards(rest, cfg.Workers)
	st.shards = st.shardsDone + shards
	if cfg.Progress != nil && st.resumed > 0 {
		// Report the restored prefix before any new shard computes, so a
		// consumer learns immediately that (and how far) the run resumed.
		st.report()
	}
	err := parallel.ReduceOrdered(ctx, shards, cfg.Workers, func(s int) ([]Result, error) {
		lo, hi := shardRange(rest, shards, s)
		return runShard(ctx, cfg, alg, done+lo, done+hi)
	}, st.merge)
	if err != nil {
		return TrialStats{}, fmt.Errorf("sim: monte carlo: %w", err)
	}
	return st.total.snapshot(), nil
}

// foldState carries the running total and progress/checkpoint bookkeeping of
// one MonteCarlo fold. merge is the ReduceOrdered sink: it runs on
// MonteCarlo's own goroutine, one shard at a time in shard order, so no field
// needs locking.
type foldState struct {
	cfg        *TrialConfig
	shards     int // shardsDone at the start plus the shards planned after it
	total      trialState
	shardsDone int
	resumed    int // shards restored from a checkpoint, <= shardsDone
}

// resume seeds the fold from the longest valid persisted prefix, if the
// configuration carries a Checkpointer and the store holds one, and
// otherwise starts it from an empty aggregate. Any prefix resumes, shard
// boundary of the current plan or not, because the fold continues with the
// very next trial. Validity is strict: the checkpoint's totals must match
// this run, its prefix must be non-empty and unfinished, it must count at
// least one shard and no more shards than trials (every shard holds a
// trial), and its state must decode to an aggregate of exactly that prefix
// for this configuration. Anything else is ignored and the run starts fresh;
// a checkpoint can only ever save work, never corrupt a result.
func (st *foldState) resume() {
	cfg := st.cfg
	st.total = newTrialState(cfg.NumAgents, cfg.Distance)
	if cfg.Checkpointer == nil {
		return
	}
	cfg.Checkpointer.Load(func(cp CheckpointState) bool {
		if cp.TotalTrials != cfg.Trials || cp.TrialsDone <= 0 || cp.TrialsDone >= cfg.Trials ||
			cp.ShardsDone <= 0 || cp.ShardsDone > cp.TrialsDone {
			return false
		}
		var s trialState
		if json.Unmarshal(cp.State, &s) != nil || s.trials != cp.TrialsDone ||
			s.numAgents != cfg.NumAgents || s.distance != cfg.Distance {
			return false
		}
		st.total, st.shardsDone, st.resumed = s, cp.ShardsDone, cp.ShardsDone
		return true
	})
}

// merge adds one shard's results to the running total, in trial order, and
// drives the progress and checkpoint hooks.
func (st *foldState) merge(results []Result) {
	for _, r := range results {
		st.total.add(r)
	}
	st.shardsDone++
	cfg := st.cfg
	if cfg.Progress != nil {
		if stride := progressStride(cfg.ProgressEvery, st.shards); st.shardsDone%stride == 0 || st.shardsDone == st.shards {
			st.report()
		}
	}
	if cfg.Checkpointer != nil && st.shardsDone < st.shards {
		every := cfg.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		if st.shardsDone%every == 0 {
			// A state that fails to encode (JSON has no ±Inf) is not saved;
			// the fold goes on either way.
			if state, err := st.total.MarshalJSON(); err == nil {
				// Save errors are deliberately dropped: the Checkpointer owns
				// counting and degrading (a full disk turns the run into a
				// progress-only one), the fold just keeps going.
				_ = cfg.Checkpointer.Save(CheckpointState{
					ShardsDone:  st.shardsDone,
					TrialsDone:  st.total.trials,
					TotalTrials: cfg.Trials,
					State:       state,
				})
			}
		}
	}
}

// report fires the progress hook with a snapshot of the running aggregate.
func (st *foldState) report() {
	st.cfg.Progress(Progress{
		ShardsDone:    st.shardsDone,
		TotalShards:   st.shards,
		TrialsDone:    st.total.trials,
		TotalTrials:   st.cfg.Trials,
		ResumedShards: st.resumed,
		Stats:         st.total.snapshot(),
	})
}
