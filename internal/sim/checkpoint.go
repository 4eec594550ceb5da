// This file holds the checkpoint/resume and progress surface of the
// Monte-Carlo engine. A giant cell adds its trials' results to one running
// TrialAccumulator in strict trial order (parallel.ReduceOrdered), so the
// running state after any trial prefix [0, n) is a pure function of those n
// trials — which makes it safe to persist: a crashed run restored from that
// state and folded over trials [n, Trials) finishes with aggregates
// bit-identical to an uninterrupted run, whatever the shard plan of either
// run. The serialized state is the accumulator's complete statistical state
// (its counts plus stats/binary.go's Welford and sketch encodings), floats as
// raw IEEE-754 bits, never a lossy summary; the trial log Merge replays is
// not part of it, because a resumed run only ever adds to the state.

package sim

import (
	"encoding/binary"
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
// serialized running accumulator after ShardsDone shards, covering trials
// [0, TrialsDone) of TotalTrials.
type CheckpointState struct {
	ShardsDone  int
	TrialsDone  int
	TotalTrials int
	// State is TrialAccumulator.MarshalBinary of the running total.
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

// trialAccumulatorStateVersion guards the serialized TrialAccumulator wire
// form; bump it whenever the accumulator gains, loses or reorders state.
const trialAccumulatorStateVersion = 3

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

func takeInt(b []byte) (int, []byte) {
	return int(int64(binary.LittleEndian.Uint64(b))), b[8:]
}

// MarshalBinary serializes the accumulator's statistical state: counts, the
// five Welford accumulators and both quantile sketches, not the trial log.
// The encoding is length-prefixed and versioned, floats travel as raw
// IEEE-754 bits, and UnmarshalBinary restores a bit-identical state: adding
// further trials to the restored value produces exactly the aggregates the
// original would have produced.
func (s *trialState) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 1024)
	b = append(b, trialAccumulatorStateVersion)
	for _, v := range []int{s.numAgents, s.distance, s.trials, s.found, s.capped} {
		b = appendInt(b, v)
	}
	b = s.time.AppendBinary(b)
	b = s.allTime.AppendBinary(b)
	b = s.ratio.AppendBinary(b)
	b = s.survivors.AppendBinary(b)
	b = s.survivorRatio.AppendBinary(b)
	b = s.times.AppendBinary(b)
	b = s.foundTimes.AppendBinary(b)
	return b, nil
}

// UnmarshalBinary restores the state serialized by MarshalBinary, with an
// empty trial log, so Merge refuses the result as a source unless it counts
// no trials. It rejects unknown versions, truncated or trailing bytes and
// internally inconsistent counts; on error the receiver is left unchanged.
func (a *TrialAccumulator) UnmarshalBinary(data []byte) error {
	var s trialState
	if err := s.unmarshal(data); err != nil {
		return err
	}
	*a = TrialAccumulator{trialState: s}
	return nil
}

// unmarshal decodes data into s, a zero trialState.
func (s *trialState) unmarshal(data []byte) error {
	if len(data) < 1 || data[0] != trialAccumulatorStateVersion {
		return fmt.Errorf("sim: unknown trial-accumulator state version")
	}
	b := data[1:]
	if len(b) < 5*8 {
		return fmt.Errorf("sim: truncated trial-accumulator state")
	}
	for _, p := range []*int{&s.numAgents, &s.distance, &s.trials, &s.found, &s.capped} {
		*p, b = takeInt(b)
	}
	if s.trials < 0 || s.found < 0 || s.capped < 0 || s.found > s.trials || s.capped > s.trials {
		return fmt.Errorf("sim: inconsistent trial-accumulator state (trials=%d, found=%d, capped=%d)",
			s.trials, s.found, s.capped)
	}
	// Fresh sketches only to have non-nil pointers to decode into; DecodeBinary
	// replaces their state wholesale.
	s.times, s.foundTimes = stats.NewSketch(0), stats.NewSketch(0)
	var err error
	for _, acc := range []interface {
		DecodeBinary([]byte) ([]byte, error)
	}{&s.time, &s.allTime, &s.ratio, &s.survivors, &s.survivorRatio, s.times, s.foundTimes} {
		if b, err = acc.DecodeBinary(b); err != nil {
			return fmt.Errorf("sim: decode trial-accumulator state: %w", err)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("sim: %d trailing bytes after trial-accumulator state", len(b))
	}
	return nil
}

// progressStride resolves TrialConfig.ProgressEvery against a plan: positive
// values pass through, zero means every shard, and negative selects an
// automatic ~1% stride so a mega-cell reports steadily without drowning the
// consumer in per-shard updates.
func progressStride(every, shards int) int {
	switch {
	case every > 0:
		return every
	case every < 0:
		if s := shards / 128; s > 1 {
			return s
		}
		return 1
	default:
		return 1
	}
}
