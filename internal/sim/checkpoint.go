// This file holds the checkpoint/resume and progress surface of the
// Monte-Carlo engine. A giant cell adds its trials' results to one running
// trialState in strict trial order (parallel.ReduceOrdered), so the running
// state after any trial prefix [0, n) is a pure function of those n trials —
// which makes it safe to persist: a crashed run restored from that state and
// folded over trials [n, Trials) finishes with aggregates bit-identical to an
// uninterrupted run, whatever the shard plan of either run. The persisted
// state is the aggregate's complete statistical state as JSON (its counts
// plus the stats Accumulator and Sketch states), never a lossy summary:
// encoding/json writes each finite float64 in the shortest form that parses
// back to the same bits.

package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"antsearch/internal/stats"
)

// Progress reports how far a MonteCarlo fold has advanced. It is delivered
// through TrialConfig.Progress after a shard's results have been added to
// the running total, always on MonteCarlo's own goroutine, which does the
// folding — callbacks never race each other for one run.
type Progress struct {
	// ShardsDone and TotalShards count shards; ShardsDone includes the
	// shards a checkpoint restored. A resumed run numbers its own shards on
	// from the checkpoint's ShardsDone, so its TotalShards may differ from a
	// fresh run's; its results do not.
	ShardsDone  int
	TotalShards int
	// TrialsDone and TotalTrials count trials; TrialsDone is always the end
	// of a folded shard, or of the restored prefix.
	TrialsDone  int
	TotalTrials int
	// ResumedShards is how many of ShardsDone were restored from a checkpoint
	// instead of computed (0 for a fresh run).
	ResumedShards int
	// Stats is a snapshot of the running aggregate over the first TrialsDone
	// trials.
	Stats TrialStats
}

// CheckpointState is one persisted prefix aggregate of a MonteCarlo run: the
// serialized running aggregate after ShardsDone shards, covering trials
// [0, TrialsDone) of TotalTrials.
type CheckpointState struct {
	ShardsDone  int
	TrialsDone  int
	TotalTrials int
	// State is the JSON form of the running total (trialState.MarshalJSON).
	State []byte
}

// Checkpointer persists and restores prefix aggregates for one cell's run.
// Implementations are expected to be durable (internal/cache.CheckpointStore)
// but the engine only assumes two things: Save failures are the
// implementation's problem (the engine ignores the error and keeps folding —
// a full disk degrades a sweep to progress-only, it never fails it), and Load
// returns the best state the caller is willing to resume from.
type Checkpointer interface {
	// Load returns the persisted checkpoint with the largest TrialsDone for
	// which valid reports true, trying candidates in decreasing TrialsDone
	// order. ok is false when no candidate passes.
	Load(valid func(CheckpointState) bool) (cp CheckpointState, ok bool)
	// Save persists one prefix aggregate. It blocks on I/O — the engine calls
	// it on MonteCarlo's own goroutine between merges, trading fold latency
	// for durability.
	//
	//antlint:blocking
	Save(cp CheckpointState) error
}

// DefaultCheckpointEvery is the shard interval between persisted checkpoints
// when TrialConfig.CheckpointEvery is zero: with the planner's <= 1024-trial
// shards, a checkpoint lands at most every 64k trials — frequent enough that
// a crash rarely loses more than a few seconds of work, rare enough that the
// serialized state writes stay invisible next to the trials themselves.
const DefaultCheckpointEvery = 64

// trialAccumulatorStateVersion guards the trial state's JSON form, stats'
// Accumulator and Sketch forms inside it included; bump it whenever any of
// them gains, loses or renames state.
const trialAccumulatorStateVersion = 4

// trialStateJSON is the wire form of a trialState.
//
//antlint:wire
type trialStateJSON struct {
	Version       int               `json:"version"`
	NumAgents     int               `json:"num_agents"`
	Distance      int               `json:"distance"`
	Trials        int               `json:"trials"`
	Found         int               `json:"found"`
	Capped        int               `json:"capped"`
	Time          stats.Accumulator `json:"time"`
	AllTime       stats.Accumulator `json:"all_time"`
	Ratio         stats.Accumulator `json:"ratio"`
	Survivors     stats.Accumulator `json:"survivors"`
	SurvivorRatio stats.Accumulator `json:"survivor_ratio"`
	Times         *stats.Sketch     `json:"times"`
	FoundTimes    *stats.Sketch     `json:"found_times"`
}

// MarshalJSON implements json.Marshaler: the versioned complete state, from
// which UnmarshalJSON restores a bit-identical one — adding further trials to
// the restored value produces exactly the aggregates the original would have
// produced. A non-finite value fails to encode.
func (s *trialState) MarshalJSON() ([]byte, error) {
	return json.Marshal(trialStateJSON{
		Version:       trialAccumulatorStateVersion,
		NumAgents:     s.numAgents,
		Distance:      s.distance,
		Trials:        s.trials,
		Found:         s.found,
		Capped:        s.capped,
		Time:          s.time,
		AllTime:       s.allTime,
		Ratio:         s.ratio,
		Survivors:     s.survivors,
		SurvivorRatio: s.survivorRatio,
		Times:         s.times,
		FoundTimes:    s.foundTimes,
	})
}

// UnmarshalJSON implements json.Unmarshaler. It rejects any other version,
// inconsistent counts, a missing sketch, counts that disagree with the
// accumulators and sketches they count, every Accumulator and Sketch state
// the stats decoders reject, and any data that is not exactly what
// MarshalJSON writes for the decoded state: unlike a positional encoding,
// JSON lets a field go missing and decode as zero, which would resume a
// wrong aggregate. On error s is left unchanged.
func (s *trialState) UnmarshalJSON(data []byte) error {
	var w trialStateJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("sim: trial state: %w", err)
	}
	switch {
	case w.Version != trialAccumulatorStateVersion:
		return fmt.Errorf("sim: trial state version %d, want %d", w.Version, trialAccumulatorStateVersion)
	case w.Trials < 0 || w.Found < 0 || w.Capped < 0 || w.Found > w.Trials || w.Capped > w.Trials:
		return fmt.Errorf("sim: inconsistent trial state (trials=%d, found=%d, capped=%d)", w.Trials, w.Found, w.Capped)
	case w.Times == nil || w.FoundTimes == nil:
		return fmt.Errorf("sim: trial state without its quantile sketches")
	case w.Time.Summarize().N != w.Found || w.FoundTimes.Summary().N != w.Found ||
		w.AllTime.Summarize().N != w.Trials || w.Survivors.Summarize().N != w.Trials || w.Times.Summary().N != w.Trials ||
		w.Ratio.Summarize().N > w.Trials || w.SurvivorRatio.Summarize().N > w.Trials:
		// add keeps these for any input: every trial feeds all_time,
		// survivors and times, every find feeds time and found_times, and
		// the ratios skip only NaN ones.
		return fmt.Errorf("sim: trial state counts (trials=%d, found=%d) disagree with its accumulators", w.Trials, w.Found)
	}
	dec := trialState{
		numAgents:     w.NumAgents,
		distance:      w.Distance,
		trials:        w.Trials,
		found:         w.Found,
		capped:        w.Capped,
		time:          w.Time,
		allTime:       w.AllTime,
		ratio:         w.Ratio,
		survivors:     w.Survivors,
		survivorRatio: w.SurvivorRatio,
		times:         w.Times,
		foundTimes:    w.FoundTimes,
	}
	if enc, err := dec.MarshalJSON(); err != nil || !bytes.Equal(enc, data) {
		return fmt.Errorf("sim: trial state is not in the form its encoder writes")
	}
	*s = dec
	return nil
}

// progressStride resolves TrialConfig.ProgressEvery against a plan: positive
// values pass through, and zero or negative selects an automatic ~1% stride
// (every shard below 256 shards) so a mega-cell reports steadily without
// drowning the consumer in per-shard updates.
func progressStride(every, shards int) int {
	if every > 0 {
		return every
	}
	return max(shards/128, 1)
}
