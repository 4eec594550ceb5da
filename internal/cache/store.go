// This file holds the durable result store. A cache backed by a Store
// survives restarts: every computed cell is appended to a write-behind log,
// the whole cache is compacted into a snapshot on demand (typically
// periodically and on graceful shutdown), and a fresh cache warm-starts from
// snapshot + log. Persistence is uniquely safe here because a cached
// aggregate is a pure function of the cell configuration and seed (the
// determinism contract in DESIGN.md §7): a persisted entry can never go
// stale, only its encoding can — which is what the schema versions guard.

package cache

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"antsearch/internal/sim"
)

// StoreSchemaVersion is the version stamped on every persisted record. A
// record carrying a different version is skipped on load — ignored, never
// misread — so an encoding change only costs recomputation, not corruption.
// Bump it whenever the wire form of a record (the sim.TrialStats JSON
// encoding included) changes incompatibly. v1 predates the fault model; v2
// added the Survivors and SurvivorRatio summaries to sim.TrialStats (a v1
// record decoded as v2 would report zeroed survivor aggregates — a misread,
// not a recomputation, hence the bump).
const StoreSchemaVersion = 2

// Entry is one persisted (key, aggregate) pair.
type Entry struct {
	Key   Key
	Stats sim.TrialStats
}

// Store persists cache entries across process restarts. Implementations must
// be safe for concurrent use: Append may race with Snapshot and Close.
type Store interface {
	// Load streams every usable persisted entry to emit, later-written
	// entries last (so replaying emits in order reconstructs recency).
	// Entries written by a different schema version are silently skipped.
	Load(emit func(Entry)) error
	// Append durably records one computed entry (the write-behind path). It
	// blocks on disk, so callers must never invoke it under Cache.mu — the
	// blocking marker lets the lockio analyzer enforce that through the
	// interface.
	//
	//antlint:blocking
	Append(Entry) error
	// Snapshot atomically replaces the persisted state with exactly the
	// given entries, oldest first, and discards the append log (compaction).
	// Entries evicted from the cache since the last snapshot are thereby
	// dropped from disk too.
	Snapshot(entries []Entry) error
	// Close releases resources. Appends after Close fail.
	Close() error
}

// record is the NDJSON wire form of one persisted entry. The wire marker
// forbids omitempty on its value fields: a restart must round-trip every
// entry exactly, including legal zero-valued aggregates.
//
//antlint:codec version=StoreSchemaVersion fields=SchemaVersion,Key,Stats
//antlint:wire
type record struct {
	SchemaVersion int            `json:"schema_version"`
	Key           Key            `json:"key"`
	Stats         sim.TrialStats `json:"stats"`
}

const (
	snapshotFile = "snapshot.ndjson"
	logFile      = "log.ndjson"
	lockFile     = "lock"
)

// DiskStore is the disk-backed Store: an append-only NDJSON log of
// {schema_version, key, stats} records next to a compacted snapshot file,
// both under one directory, in the crash-safe layout of logStore — every
// crash point leaves a loadable superset or equal set of the acknowledged
// state.
type DiskStore struct {
	logStore
	fsync      bool          // fsync the log after every append
	maxRetries int           // appendRetries; tests set their own
	backoff    time.Duration // retryBackoff; tests shorten it
	skipped    int           // records dropped by the last Load (schema, key schema, parse or length)
	// retries counts retried append attempts. Atomic so Retries (the /stats
	// path) never waits behind an Append sleeping through its backoff.
	retries atomic.Uint64
}

// appendRetries is the number of additional attempts a failed append makes
// before reporting the error and letting the cache degrade to memory-only
// serving, and retryBackoff the pause before the first retry (doubling per
// further attempt). Two retries within ~15ms ride out the transient failures
// worth riding out — a full disk being cleaned up, a network filesystem
// hiccup — without stalling the write-behind path noticeably when the
// failure is permanent.
const (
	appendRetries = 2
	retryBackoff  = 5 * time.Millisecond
)

// DiskStoreOptions tune a DiskStore beyond the defaults of OpenDiskStore.
type DiskStoreOptions struct {
	// FsyncAppends makes every Append fsync the log before acknowledging, so
	// an acknowledged entry survives not just a process crash (the default
	// guarantee: the write has left the process) but an OS crash or power
	// loss. The cost is one disk flush per computed cell — negligible next to
	// the Monte-Carlo work a cell represents, but measurable for tiny cells,
	// which is why it is opt-in.
	FsyncAppends bool
}

// OpenDiskStore opens (creating if needed) the store rooted at dir with
// default options. The directory is claimed with an exclusive lock: two
// processes sharing one store dir would silently truncate each other's
// acknowledged appends at compaction time, so the second open fails loudly
// instead.
func OpenDiskStore(dir string) (*DiskStore, error) {
	return OpenDiskStoreWith(dir, DiskStoreOptions{})
}

// OpenDiskStoreWith is OpenDiskStore with explicit options.
func OpenDiskStoreWith(dir string, opts DiskStoreOptions) (*DiskStore, error) {
	s := &DiskStore{fsync: opts.FsyncAppends, maxRetries: appendRetries, backoff: retryBackoff}
	if err := s.open(dir, lockFile, snapshotFile, logFile); err != nil {
		return nil, fmt.Errorf("cache: open store: %w", err)
	}
	return s, nil
}

// Load implements Store: snapshot first, then the log, so log records
// (written after the snapshot they follow) win on duplicate keys when the
// caller replays emissions in order. Unparseable lines (a crash-torn tail,
// hand-edited files), lines past maxLineBytes, records from other schema
// versions and records keyed under an older key schema
// (!Key.CurrentSchema()) are skipped and counted, not errors: the worst
// outcome of a damaged or outdated store is recomputation.
func (s *DiskStore) Load(emit func(Entry)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.skipped = 0
	overlong, err := s.replay(func(line []byte) {
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.SchemaVersion != StoreSchemaVersion || !rec.Key.CurrentSchema() {
			s.skipped++
			return
		}
		emit(Entry{Key: rec.Key, Stats: rec.Stats})
	})
	s.skipped += overlong
	if err != nil {
		return fmt.Errorf("cache: load store: %w", err)
	}
	return nil
}

// Skipped reports how many records the last Load dropped (wrong schema
// version, stale key schema, unparseable or over-long).
func (s *DiskStore) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Append implements Store: one marshalled record, one line, one write — and,
// with DiskStoreOptions.FsyncAppends, one flush before the acknowledgement.
// Failed attempts are retried with exponential backoff up to the configured
// budget before the error (and with it the cache's memory-only degradation)
// is reported; logStore.writeLine starts the next write on a fresh line, so a
// torn partial write from a failed attempt costs one skipped line on load,
// never a lost record. The rare retry sleeps under s.mu — Snapshot/Load wait
// them out — which is acceptable for a path whose steady state is one clean
// line-write.
//
//antlint:blocking
func (s *DiskStore) Append(e Entry) error {
	line, err := json.Marshal(record{SchemaVersion: StoreSchemaVersion, Key: e.Key, Stats: e.Stats})
	if err != nil {
		return fmt.Errorf("cache: append to store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cache: append to closed store")
	}
	var lastErr error
	for attempt := 0; attempt <= s.maxRetries; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			time.Sleep(s.backoff << (attempt - 1))
		}
		if err := s.writeLine(line); err != nil {
			lastErr = fmt.Errorf("cache: append to store: %w", err)
			continue
		}
		if s.fsync {
			if err := s.log.Sync(); err != nil {
				lastErr = fmt.Errorf("cache: append to store: fsync: %w", err)
				continue
			}
		}
		return nil
	}
	return lastErr
}

// Retries reports how many append attempts were retried over the store's
// lifetime; cache.Stats surfaces it as store_retries.
func (s *DiskStore) Retries() uint64 { return s.retries.Load() }

// Snapshot implements Store: the entries replace the snapshot and the log is
// truncated, crash-safely (see logStore.compact).
func (s *DiskStore) Snapshot(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cache: snapshot on closed store")
	}
	err := s.compact(func(enc *json.Encoder) error {
		for _, e := range entries {
			if err := enc.Encode(record{SchemaVersion: StoreSchemaVersion, Key: e.Key, Stats: e.Stats}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cache: snapshot: %w", err)
	}
	return nil
}

// Close implements Store. It releases the directory's exclusive lock, so
// another process may open the store afterwards.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.close()
}
