// This file holds the checkpoint/resume and progress surface of the
// Monte-Carlo engine. A giant cell adds its trials' results to one running
// TrialAccumulator in strict trial order (parallel.ReduceOrdered), so the
// running state after any trial prefix [0, n) is a pure function of those n
// trials — which makes it safe to persist: a crashed run restored from that
// state and folded over trials [n, Trials) finishes with aggregates
// bit-identical to an uninterrupted run, whatever the shard plan of either
// run. The serialized state is the accumulator's complete internal
// representation (stats/binary.go plus the trial log), floats as raw
// IEEE-754 bits, never a lossy summary.

package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"antsearch/internal/stats"
)

// Progress reports how far a MonteCarlo fold has advanced. It is delivered
// through TrialConfig.Progress after a shard's results have been added to
// the running total, always from the single goroutine that serializes the
// fold — callbacks never race each other for one run.
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
// serialized running accumulator after ShardsDone of TotalShards shards,
// covering trials [0, TrialsDone) of TotalTrials.
type CheckpointState struct {
	ShardsDone  int
	TotalShards int
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
	// it from the fold goroutine, trading fold latency for durability.
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
const trialAccumulatorStateVersion = 2

// Flag bits of one serialized trial-log entry.
const (
	logFound = 1 << iota
	logCapped
)

// logEntrySize is the encoded size of one trial-log entry: the flag byte,
// then Time, Finder, Survivors, Distance and LowerBound as 8-byte words.
const logEntrySize = 1 + 5*8

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

func takeInt(b []byte) (int, []byte) {
	return int(int64(binary.LittleEndian.Uint64(b))), b[8:]
}

// MarshalBinary serializes the accumulator's complete internal state: counts,
// the five Welford accumulators, both quantile sketches and the trial log.
// The encoding is length-prefixed and versioned, floats travel as raw
// IEEE-754 bits, and UnmarshalBinary restores a bit-identical accumulator:
// folding further shards into the restored value, or merging it into another
// accumulator, produces exactly the aggregates the original would have
// produced.
func (a *TrialAccumulator) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 1024+len(a.log)*logEntrySize)
	b = append(b, trialAccumulatorStateVersion)
	for _, v := range []int{a.numAgents, a.distance, a.trials, a.found, a.capped} {
		b = appendInt(b, v)
	}
	b = a.time.AppendBinary(b)
	b = a.allTime.AppendBinary(b)
	b = a.ratio.AppendBinary(b)
	b = a.survivors.AppendBinary(b)
	b = a.survivorRatio.AppendBinary(b)
	b = a.times.AppendBinary(b)
	b = a.foundTimes.AppendBinary(b)
	b = appendInt(b, len(a.log))
	for _, r := range a.log {
		var flags byte
		if r.Found {
			flags |= logFound
		}
		if r.Capped {
			flags |= logCapped
		}
		b = append(b, flags)
		for _, v := range []int{r.Time, r.Finder, r.Survivors, r.Distance} {
			b = appendInt(b, v)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.LowerBound))
	}
	return b, nil
}

// UnmarshalBinary restores the state serialized by MarshalBinary. It rejects
// unknown versions, truncated or trailing bytes, internally inconsistent
// counts, a trial log whose length is not min(trials, stats.MergeReplayCap)
// and log entries with unknown flag bits; on error the receiver is left
// unchanged.
func (a *TrialAccumulator) UnmarshalBinary(data []byte) error {
	if len(data) < 1 || data[0] != trialAccumulatorStateVersion {
		return fmt.Errorf("sim: unknown trial-accumulator state version")
	}
	b := data[1:]
	// Fresh sketches only to have non-nil pointers to decode into; DecodeBinary
	// replaces their state wholesale.
	dec := TrialAccumulator{times: stats.NewSketch(0), foundTimes: stats.NewSketch(0)}
	if len(b) < 5*8 {
		return fmt.Errorf("sim: truncated trial-accumulator state")
	}
	for _, p := range []*int{&dec.numAgents, &dec.distance, &dec.trials, &dec.found, &dec.capped} {
		*p, b = takeInt(b)
	}
	if dec.trials < 0 || dec.found < 0 || dec.capped < 0 || dec.found > dec.trials || dec.capped > dec.trials {
		return fmt.Errorf("sim: inconsistent trial-accumulator state (trials=%d, found=%d, capped=%d)",
			dec.trials, dec.found, dec.capped)
	}
	var err error
	for _, acc := range []interface {
		DecodeBinary([]byte) ([]byte, error)
	}{&dec.time, &dec.allTime, &dec.ratio, &dec.survivors, &dec.survivorRatio, dec.times, dec.foundTimes} {
		if b, err = acc.DecodeBinary(b); err != nil {
			return fmt.Errorf("sim: decode trial-accumulator state: %w", err)
		}
	}
	if len(b) < 8 {
		return fmt.Errorf("sim: truncated trial-accumulator state")
	}
	var n int
	n, b = takeInt(b)
	if want := min(dec.trials, stats.MergeReplayCap); n != want {
		return fmt.Errorf("sim: trial log holds %d results, want %d", n, want)
	}
	if n > len(b)/logEntrySize {
		return fmt.Errorf("sim: truncated trial-accumulator state")
	}
	dec.log = make([]Result, n)
	for i := range dec.log {
		flags := b[0]
		if flags&^(logFound|logCapped) != 0 {
			return fmt.Errorf("sim: trial log entry %d has unknown flags %#x", i, flags)
		}
		r := Result{Found: flags&logFound != 0, Capped: flags&logCapped != 0}
		b = b[1:]
		r.Time, b = takeInt(b)
		r.Finder, b = takeInt(b)
		r.Survivors, b = takeInt(b)
		r.Distance, b = takeInt(b)
		r.LowerBound = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		dec.log[i] = r
	}
	if len(b) != 0 {
		return fmt.Errorf("sim: %d trailing bytes after trial-accumulator state", len(b))
	}
	*a = dec
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
