// This file holds the checkpoint tier of the durable store: mid-cell prefix
// aggregates (sim.CheckpointState) persisted while a mega-cell is still
// running, so a crashed or killed process resumes the fold instead of
// restarting it. It shares the result store's crash-safe layout (logStore: an
// append-only NDJSON log compacted into a snapshot under an flock-claimed
// directory) with its own files and schema, so a CheckpointStore can share a
// directory with a DiskStore. Unlike results, checkpoints are disposable: any
// record may be dropped at any time (the worst outcome is recomputation),
// which is why every error path here degrades instead of failing and why a
// cell's checkpoints leave memory the moment its final aggregate lands in the
// result cache (Drop) and leave disk at the next compaction.

package cache

import (
	"encoding/json"
	"fmt"
	"sort"

	"antsearch/internal/sim"
)

// CheckpointSchemaVersion is the version stamped on every persisted
// checkpoint record; records carrying a different version are skipped on
// load. Bump it whenever the record wire form or the accumulator state it
// embeds (sim's trialAccumulatorStateVersion) changes, so an old state never
// reaches a new decoder. v3 records carried the state as base64 of a binary
// encoding with a state_len field; v4 embeds the state's JSON object.
const CheckpointSchemaVersion = 4

// maxCheckpointsPerCell bounds how many distinct prefixes the in-memory
// index keeps per cell (the largest survive). The engine resumes from any
// prefix, so the latest would suffice; the older ones only back it up when
// its state fails to decode.
const maxCheckpointsPerCell = 8

// checkpointRecord is the NDJSON wire form of one persisted checkpoint. The
// state is sim's JSON trial state, embedded as is: the store checks that it
// is present and leaves decoding it, strictly, to the resuming fold.
//
//antlint:codec version=CheckpointSchemaVersion fields=SchemaVersion,Key,ShardsDone,TrialsDone,TotalTrials,State
//antlint:wire
type checkpointRecord struct {
	SchemaVersion int             `json:"schema_version"`
	Key           Key             `json:"key"`
	ShardsDone    int             `json:"shards_done"`
	TrialsDone    int             `json:"trials_done"`
	TotalTrials   int             `json:"total_trials"`
	State         json.RawMessage `json:"state"`
}

// newCheckpointRecord is the current-schema wire form of cp under key.
func newCheckpointRecord(key Key, cp sim.CheckpointState) checkpointRecord {
	return checkpointRecord{
		SchemaVersion: CheckpointSchemaVersion,
		Key:           key,
		ShardsDone:    cp.ShardsDone,
		TrialsDone:    cp.TrialsDone,
		TotalTrials:   cp.TotalTrials,
		State:         cp.State,
	}
}

const (
	checkpointLogFile      = "checkpoints.ndjson"
	checkpointSnapshotFile = "checkpoints-snapshot.ndjson"
	checkpointLockFile     = "checkpoints.lock"
)

// CheckpointStats is a snapshot of the checkpoint tier's counters.
type CheckpointStats struct {
	// Saved counts checkpoint records successfully appended.
	Saved uint64 `json:"saved"`
	// ResumedRuns counts Load calls that handed a usable checkpoint to a
	// resuming fold.
	ResumedRuns uint64 `json:"resumed_runs"`
	// ResumedShards totals the shards those checkpoints covered (as counted
	// under the plan that wrote them) — work a crash did not cost twice.
	ResumedShards uint64 `json:"resumed_shards"`
	// Pruned counts checkpoint records garbage-collected because their cell's
	// final aggregate landed in the result cache (Drop and Prune).
	Pruned uint64 `json:"pruned"`
	// StoreErrors counts failed appends and compactions. Checkpointing
	// degrades to progress-only on persistent errors; this counter is how
	// that surfaces.
	StoreErrors uint64 `json:"store_errors"`
	// Cells is the number of cells currently holding checkpoints.
	Cells int `json:"cells"`
}

// CheckpointStore persists mid-cell prefix aggregates. It implements the
// storage side of sim.Checkpointer; ForCell binds it to one cell's key. Safe
// for concurrent use by multiple in-flight sweeps.
type CheckpointStore struct {
	logStore
	// index holds, per cell, the persisted checkpoints sorted by ascending
	// TrialsDone (largest — the preferred resume point — last), capped at
	// maxCheckpointsPerCell.
	index map[Key][]sim.CheckpointState
	// dropped records that Drop removed entries from the index since the
	// last compaction, so the on-disk files still hold them.
	dropped bool

	saved, resumedRuns, resumedShards, pruned, storeErrors uint64
}

// OpenCheckpointStore opens (creating if needed) the checkpoint tier rooted
// at dir and warm-starts its index from the persisted log and snapshot. The
// directory is claimed with its own exclusive lock (separate from the result
// store's), so a result DiskStore and a CheckpointStore may share dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	s := &CheckpointStore{index: make(map[Key][]sim.CheckpointState)}
	if err := s.open(dir, checkpointLockFile, checkpointSnapshotFile, checkpointLogFile); err != nil {
		return nil, fmt.Errorf("cache: open checkpoint store: %w", err)
	}
	// Unparseable or over-long lines (torn tails, damaged records) and
	// unusable records are skipped: a damaged checkpoint costs recomputation,
	// never an error.
	_, err := s.replay(func(line []byte) {
		var rec checkpointRecord
		if json.Unmarshal(line, &rec) != nil || !recordUsable(rec) {
			return
		}
		s.insertLocked(rec.Key, sim.CheckpointState{
			ShardsDone:  rec.ShardsDone,
			TrialsDone:  rec.TrialsDone,
			TotalTrials: rec.TotalTrials,
			State:       rec.State,
		})
	})
	if err != nil {
		s.close() //antlint:allow storeerr open failed; best-effort release of both handles, the load error propagates
		return nil, fmt.Errorf("cache: load checkpoint store: %w", err)
	}
	return s, nil
}

// recordUsable filters loaded records: current schema, internally consistent
// bounds — every shard holds at least one trial, so 0 < shards_done <=
// trials_done — and a state.
func recordUsable(rec checkpointRecord) bool {
	return rec.SchemaVersion == CheckpointSchemaVersion &&
		rec.Key.CurrentSchema() &&
		rec.TrialsDone > 0 && rec.TrialsDone <= rec.TotalTrials &&
		rec.ShardsDone > 0 && rec.ShardsDone <= rec.TrialsDone &&
		len(rec.State) > 0
}

// insertLocked merges one checkpoint into a cell's candidate list, keeping
// the list sorted by TrialsDone, deduplicated (a replayed log and snapshot
// may repeat records; the later write wins), and capped at the largest
// maxCheckpointsPerCell prefixes. Callers either hold s.mu or run during the
// single-threaded open.
func (s *CheckpointStore) insertLocked(key Key, cp sim.CheckpointState) {
	list := s.index[key]
	at := sort.Search(len(list), func(i int) bool { return list[i].TrialsDone >= cp.TrialsDone })
	if at < len(list) && list[at].TrialsDone == cp.TrialsDone {
		list[at] = cp
	} else {
		list = append(list, sim.CheckpointState{})
		copy(list[at+1:], list[at:])
		list[at] = cp
	}
	if len(list) > maxCheckpointsPerCell {
		list = append(list[:0], list[len(list)-maxCheckpointsPerCell:]...)
	}
	s.index[key] = list
}

// save appends one checkpoint for key to the log and indexes it.
//
//antlint:blocking
func (s *CheckpointStore) save(key Key, cp sim.CheckpointState) error {
	line, err := json.Marshal(newCheckpointRecord(key, cp))
	if err != nil {
		return fmt.Errorf("cache: save checkpoint: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.storeErrors++
		return fmt.Errorf("cache: save checkpoint to closed store")
	}
	if err := s.writeLine(line); err != nil {
		s.storeErrors++
		return fmt.Errorf("cache: save checkpoint: %w", err)
	}
	s.insertLocked(key, cp)
	s.saved++
	return nil
}

// load hands the resuming fold its best usable checkpoint: candidates for
// key are tried in decreasing TrialsDone order against valid (which checks
// the cell's trial total and decodes the state — see sim.MonteCarlo's
// resume), so a damaged latest record falls back to the next one.
func (s *CheckpointStore) load(key Key, valid func(sim.CheckpointState) bool) (sim.CheckpointState, bool) {
	s.mu.Lock()
	candidates := append([]sim.CheckpointState(nil), s.index[key]...)
	s.mu.Unlock()
	// Decoding runs off the lock: valid() decodes the trial state, and a
	// concurrent sweep must not stall behind it.
	for i := len(candidates) - 1; i >= 0; i-- {
		if valid(candidates[i]) {
			s.mu.Lock()
			s.resumedRuns++
			s.resumedShards += uint64(candidates[i].ShardsDone)
			s.mu.Unlock()
			return candidates[i], true
		}
	}
	return sim.CheckpointState{}, false
}

// Drop forgets key's checkpoints once its cell has finished: the final
// aggregate is in the result cache, so the prefixes are dead weight. The drop
// is memory-only — no compaction, no fsync — so it is cheap enough for the
// request path; the records leave disk at the next Prune or Close.
func (s *CheckpointStore) Drop(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if list, ok := s.index[key]; ok {
		s.pruned += uint64(len(list))
		delete(s.index, key)
		s.dropped = true
	}
}

// Prune garbage-collects every checkpoint whose cell done reports finished —
// typically cache.Contains of the result cache: once the final aggregate is
// durable, the cell's prefixes are dead weight. When anything was removed,
// here or by Drop since the last compaction, the surviving index is
// compacted to disk (snapshot + truncated log), bounding the log's growth
// across sweep generations. It returns the number of checkpoint records
// pruned by this call.
func (s *CheckpointStore) Prune(done func(Key) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	removed := 0
	for key, list := range s.index { //antlint:allow maporder a count and a set of deletions are order-independent
		if done(key) {
			removed += len(list)
			delete(s.index, key)
		}
	}
	s.pruned += uint64(removed)
	if removed > 0 || s.dropped {
		if err := s.compactLocked(); err != nil {
			s.storeErrors++
		}
	}
	return removed
}

// compactLocked rewrites the snapshot from the live index and truncates the
// log, crash-safely (see logStore.compact). The caller holds s.mu.
func (s *CheckpointStore) compactLocked() error {
	err := s.compact(func(enc *json.Encoder) error {
		keys := make([]string, 0, len(s.index))
		for key := range s.index { //antlint:allow maporder keys are sorted before use below
			keys = append(keys, string(key))
		}
		sort.Strings(keys) // deterministic file layout
		for _, key := range keys {
			for _, cp := range s.index[Key(key)] {
				if err := enc.Encode(newCheckpointRecord(Key(key), cp)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cache: compact checkpoints: %w", err)
	}
	s.dropped = false
	return nil
}

// Stats snapshots the counters.
func (s *CheckpointStore) Stats() CheckpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CheckpointStats{
		Saved:         s.saved,
		ResumedRuns:   s.resumedRuns,
		ResumedShards: s.resumedShards,
		Pruned:        s.pruned,
		StoreErrors:   s.storeErrors,
		Cells:         len(s.index),
	}
}

// Close compacts the surviving checkpoints and releases the directory lock.
func (s *CheckpointStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	compactErr := s.compactLocked()
	if compactErr != nil {
		s.storeErrors++
	}
	if err := s.close(); err != nil {
		return err
	}
	return compactErr
}

// cellCheckpointDisableAfter is how many consecutive Save failures a cell's
// checkpointer tolerates before it stops writing for the rest of its run: a
// persistently full disk should slow a sweep by zero checkpoints, not by a
// failed write per interval. The store itself stays open — the next cell
// starts with fresh credit, so a transient outage does not silence
// checkpointing forever.
const cellCheckpointDisableAfter = 3

// cellCheckpointer binds a CheckpointStore to one cell's key, implementing
// sim.Checkpointer. Each MonteCarlo run gets its own value (ForCell), so the
// consecutive-failure budget is per run, and MonteCarlo's own goroutine is
// the only Save caller — no locking needed on fails.
type cellCheckpointer struct {
	store *CheckpointStore
	key   Key
	fails int
}

// ForCell returns the sim.Checkpointer persisting key's prefixes in s. Hand
// the result to sim.TrialConfig.Checkpointer (via scenario.Runner).
func (s *CheckpointStore) ForCell(key Key) sim.Checkpointer {
	return &cellCheckpointer{store: s, key: key}
}

// Load implements sim.Checkpointer.
func (c *cellCheckpointer) Load(valid func(sim.CheckpointState) bool) (sim.CheckpointState, bool) {
	return c.store.load(c.key, valid)
}

// Save implements sim.Checkpointer. After cellCheckpointDisableAfter
// consecutive failures it degrades to a no-op for the rest of the run; any
// success resets the budget.
//
//antlint:blocking
func (c *cellCheckpointer) Save(cp sim.CheckpointState) error {
	if c.fails >= cellCheckpointDisableAfter {
		return nil
	}
	if err := c.store.save(c.key, cp); err != nil {
		c.fails++
		return err
	}
	c.fails = 0
	return nil
}
