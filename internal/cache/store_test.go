package cache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"antsearch/internal/sim"
)

// testKeyV2 builds a current-schema key for synthetic store tests; entries
// under other key schemas are dropped on warm start, so tests that expect
// their entries back must key them like CellKey does.
func testKeyV2(parts ...any) Key {
	return Key(keyPrefix) + fingerprint(parts...)
}

func loadAll(t *testing.T, s Store) map[Key]sim.TrialStats {
	t.Helper()
	got := map[Key]sim.TrialStats{}
	if err := s.Load(func(e Entry) { got[e.Key] = e.Stats }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDiskStoreAppendLoadRoundTrip(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key]sim.TrialStats{}
	for i := 1; i <= 5; i++ {
		k := testKeyV2("cell", i)
		v := testStats(i)
		want[k] = v
		if err := s.Append(Entry{Key: k, Stats: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := loadAll(t, s2); !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded %d entries %+v, want %+v", len(got), got, want)
	}
	if skipped := s2.Skipped(); skipped != 0 {
		t.Errorf("clean store skipped %d records on load", skipped)
	}
}

// TestDiskStoreSnapshotCompacts pins the compaction contract: a snapshot
// replaces the persisted state with exactly the given entries (evicted ones
// drop off disk) and truncates the append log, while appends after the
// snapshot still survive a reload.
func TestDiskStoreSnapshotCompacts(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep, evicted, late := testKeyV2("keep"), testKeyV2("evicted"), testKeyV2("late")
	for _, k := range []Key{keep, evicted} {
		if err := s.Append(Entry{Key: k, Stats: testStats(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot([]Entry{{Key: keep, Stats: testStats(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Key: late, Stats: testStats(3)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	logInfo, err := os.Stat(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if logInfo.Size() == 0 {
		t.Error("post-snapshot append left an empty log")
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := loadAll(t, s2)
	want := map[Key]sim.TrialStats{keep: testStats(2), late: testStats(3)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after compaction got %+v, want %+v (evicted entry must be gone)", got, want)
	}
}

// TestDiskStoreSkipsStaleAndGarbage is the schema-safety acceptance test: a
// store holding records from another schema version, unparseable lines and a
// crash-torn tail loads cleanly, skipping exactly the bad records.
func TestDiskStoreSkipsStaleAndGarbage(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	good := testKeyV2("good")
	goodLine, err := json.Marshal(record{SchemaVersion: StoreSchemaVersion, Key: good, Stats: testStats(4)})
	if err != nil {
		t.Fatal(err)
	}
	oldLine, err := json.Marshal(record{SchemaVersion: StoreSchemaVersion - 1, Key: testKeyV2("old"), Stats: testStats(1)})
	if err != nil {
		t.Fatal(err)
	}
	futureLine, err := json.Marshal(record{SchemaVersion: StoreSchemaVersion + 7, Key: testKeyV2("future"), Stats: testStats(2)})
	if err != nil {
		t.Fatal(err)
	}
	content := fmt.Sprintf("%s\n%s\n%s\nnot json at all\n{\"schema_version\": %d, \"key\": \"torn",
		oldLine, goodLine, futureLine, StoreSchemaVersion)
	if err := os.WriteFile(filepath.Join(dir, logFile), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := loadAll(t, s)
	if len(got) != 1 || got[good].Trials != 4 {
		t.Errorf("loaded %+v, want exactly the current-schema entry", got)
	}
	if skipped := s.Skipped(); skipped != 4 {
		t.Errorf("skipped %d records, want 4 (old schema, future schema, garbage, torn tail)", skipped)
	}
}

func TestNewWithStoreWarmStart(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithStore(8, s)
	if err != nil {
		t.Fatal(err)
	}
	key := testKeyV2("warm")
	computes := 0
	if _, _, err := c.Do(context.Background(), key, func(context.Context) (sim.TrialStats, error) {
		computes++
		return testStats(9), nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Persisted != 1 || st.StoreErrors != 0 {
		t.Fatalf("after one computation stats = %+v, want persisted=1", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewWithStore(8, s2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Loaded != 1 || st.Entries != 1 {
		t.Fatalf("warm start stats = %+v, want 1 loaded entry", st)
	}
	v, cached, err := c2.Do(context.Background(), key, func(context.Context) (sim.TrialStats, error) {
		t.Error("a warm-started entry must not recompute")
		return sim.TrialStats{}, nil
	})
	if err != nil || !cached || v.Trials != 9 {
		t.Errorf("warm-started Do = (%+v, %v, %v), want the persisted value as a hit", v, cached, err)
	}
	if computes != 1 {
		t.Errorf("compute ran %d times across the restart, want 1", computes)
	}
}

// TestWarmStartDropsStaleKeySchema pins the key-versioning half of the
// durability contract: entries keyed under an older CellKey scheme are
// ignored on warm start (they cost recomputation), never served, and the
// store counts them as skipped so an operator sees the store shrink.
func TestWarmStartDropsStaleKeySchema(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A v1-era key: the bare hex fingerprint, no version prefix.
	staleKey := fingerprint("scenario", "known-k", "k", 4)
	currentKey := testKeyV2("scenario", "known-k", "k", 4)
	if err := s.Append(Entry{Key: staleKey, Stats: testStats(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Key: currentKey, Stats: testStats(2)}); err != nil {
		t.Fatal(err)
	}
	c, err := NewWithStore(8, s)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.Loaded != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want exactly the current-schema entry loaded", st)
	}
	if skipped := s.Skipped(); skipped != 1 {
		t.Errorf("Skipped() = %d, want the stale-key record counted", skipped)
	}
	if c.Contains(staleKey) {
		t.Error("a stale-schema key must not be served")
	}
	if v, ok := lookup(c, currentKey); !ok || v.Trials != 2 {
		t.Errorf("current-schema entry = (%+v, %v), want loaded", v, ok)
	}
}

// TestCachePersistenceUnderConcurrency is the race-enabled durability test:
// concurrent Do traffic interleaved with snapshots must leave a store that
// reloads to exactly the surviving in-memory state.
func TestCachePersistenceUnderConcurrency(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		keys    = 24
	)
	c, err := NewWithStore(keys+8, s) // roomy: no evictions, every key survives
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := testKeyV2("cell", i)
				v, _, err := c.Do(context.Background(), k, func(context.Context) (sim.TrialStats, error) {
					return testStats(i + 1), nil
				})
				if err != nil || v.Trials != i+1 {
					t.Errorf("worker %d key %d: (%+v, %v)", w, i, v, err)
					return
				}
				if w == 0 && i%5 == 0 {
					if err := c.Snapshot(); err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.StoreErrors != 0 {
		t.Fatalf("store errors under concurrency: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewWithStore(keys+8, s2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Loaded != keys || st.Entries != keys {
		t.Fatalf("reload stats = %+v, want all %d entries back", st, keys)
	}
	for i := 0; i < keys; i++ {
		v, ok := lookup(c2, testKeyV2("cell", i))
		if !ok || v.Trials != i+1 {
			t.Errorf("key %d after reload = (%+v, %v), want the computed value", i, v, ok)
		}
	}
}

// TestWarmStartCountersWithSmallCapacity pins the counter semantics when the
// store outgrows the cache: Loaded reports what actually survived the replay
// (not every emitted record), and replay evictions are not runtime evictions.
func TestWarmStartCountersWithSmallCapacity(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const persisted, capacity = 10, 4
	for i := 0; i < persisted; i++ {
		if err := s.Append(Entry{Key: testKeyV2("cell", i), Stats: testStats(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewWithStore(capacity, s)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := c.Stats()
	if st.Loaded != capacity || st.Entries != capacity {
		t.Errorf("stats = %+v, want the %d retained entries counted as loaded", st, capacity)
	}
	if st.Evictions != 0 {
		t.Errorf("replay evictions leaked into the runtime counter: %+v", st)
	}
	// The replay preserves append order, so the most recent entries survive.
	for i := persisted - capacity; i < persisted; i++ {
		if !c.Contains(testKeyV2("cell", i)) {
			t.Errorf("recent entry %d missing after bounded warm start", i)
		}
	}
}

// TestOpenDiskStoreRejectsConcurrentUse pins the directory lock: two live
// stores on one directory would truncate each other's acknowledged appends
// at compaction, so the second open must fail loudly — and succeed again
// once the first closes.
func TestOpenDiskStoreRejectsConcurrentUse(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s1, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(dir); err == nil {
		t.Fatal("second OpenDiskStore on a live directory must fail")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen after Close failed: %v", err)
	}
	s2.Close()
}

func TestOpenDiskStoreSweepsOrphanedTempFiles(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	orphan := filepath.Join(dir, snapshotFile+".tmp-12345")
	if err := os.WriteFile(orphan, []byte("half-written snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned snapshot temp file survived OpenDiskStore: %v", err)
	}
}

func TestStoreOperationsAfterCloseFail(t *testing.T) {
	t.Parallel()

	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want idempotent nil", err)
	}
	if err := s.Append(Entry{Key: testKeyV2("x"), Stats: testStats(1)}); err == nil {
		t.Error("Append after Close must fail")
	}
	if err := s.Snapshot(nil); err == nil {
		t.Error("Snapshot after Close must fail")
	}
}

// TestDiskStoreFsyncAppends covers the synchronous-append option: entries
// acknowledged by a fsyncing store must round-trip exactly like default ones
// (the option changes durability, not the wire form), and appends after Close
// must still fail.
func TestDiskStoreFsyncAppends(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStoreWith(dir, DiskStoreOptions{FsyncAppends: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key]sim.TrialStats{}
	for i := 1; i <= 3; i++ {
		k := testKeyV2("fsync-cell", i)
		v := testStats(i)
		want[k] = v
		if err := s.Append(Entry{Key: k, Stats: v}); err != nil {
			t.Fatal(err)
		}
	}
	// The acknowledged bytes must already be on the log file, not buffered in
	// the process: a reader that opens the file independently sees them. (The
	// first write after open starts with a newline that ends any torn tail;
	// that blank line is not a record.)
	if data, err := os.ReadFile(filepath.Join(dir, "log.ndjson")); err != nil {
		t.Fatal(err)
	} else if lines := bytes.Count(bytes.TrimLeft(data, "\n"), []byte("\n")); lines != 3 {
		t.Errorf("log holds %d complete lines after 3 fsynced appends, want 3", lines)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Key: testKeyV2("late"), Stats: testStats(9)}); err == nil {
		t.Error("append after close succeeded on a fsyncing store")
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := loadAll(t, s2); !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded %+v, want %+v", got, want)
	}
}

// TestDiskStoreAppendRetriesTransientFailure pins the retry satellite: an
// append whose first physical write fails transiently is retried with
// backoff, succeeds, counts its retries, and leaves the log loadable — the
// torn partial line from the failed attempt costs at most one skipped record.
func TestDiskStoreAppendRetriesTransientFailure(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.backoff = time.Microsecond
	failures := 1
	s.appendFault = func() error {
		if failures > 0 {
			failures--
			return fmt.Errorf("transient: device busy")
		}
		return nil
	}
	k := testKeyV2("retry", 1)
	v := testStats(1)
	if err := s.Append(Entry{Key: k, Stats: v}); err != nil {
		t.Fatalf("append with one transient failure should ride it out, got %v", err)
	}
	if got := s.Retries(); got != 1 {
		t.Errorf("Retries() = %d after one retried append, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := loadAll(t, s2)
	if !reflect.DeepEqual(got, map[Key]sim.TrialStats{k: v}) {
		t.Errorf("reloaded %+v, want the retried entry intact", got)
	}
}

// TestDiskStoreAppendTornLineRecovery simulates the worst transient case the
// retry path is designed for: the first attempt writes a PARTIAL line before
// failing. The retried record is newline-prefixed, so the torn fragment ends
// at the next newline and costs exactly one skipped line on load while the
// retried entry survives.
func TestDiskStoreAppendTornLineRecovery(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.backoff = time.Microsecond
	torn := true
	s.appendFault = func() error {
		if torn {
			torn = false
			// Half a record reaches the disk before the failure.
			if _, err := s.log.WriteString(`{"key":"tor`); err != nil {
				return err
			}
			return fmt.Errorf("transient: write interrupted")
		}
		return nil
	}
	k := testKeyV2("torn", 1)
	v := testStats(2)
	if err := s.Append(Entry{Key: k, Stats: v}); err != nil {
		t.Fatalf("append after a torn write should succeed on retry, got %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := loadAll(t, s2)
	if !reflect.DeepEqual(got, map[Key]sim.TrialStats{k: v}) {
		t.Errorf("reloaded %+v, want the retried entry despite the torn fragment", got)
	}
	if skipped := s2.Skipped(); skipped != 1 {
		t.Errorf("torn fragment should cost exactly 1 skipped record, got %d", skipped)
	}
}

// reloadOne closes s, reopens its directory and requires exactly the entry
// k → v back, with one skipped line: the torn fragment.
func reloadOne(t *testing.T, s *DiskStore, k Key, v sim.TrialStats) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := loadAll(t, s2); !reflect.DeepEqual(got, map[Key]sim.TrialStats{k: v}) {
		t.Errorf("reloaded %+v, want the acknowledged entry", got)
	}
	if skipped := s2.Skipped(); skipped != 1 {
		t.Errorf("skipped %d lines, want 1 (the torn fragment)", skipped)
	}
}

// TestDiskStoreAppendAfterTornTail pins the first write after open: a crash
// left a partial line at the end of the log, and the next acknowledged
// append must not be glued onto it.
func TestDiskStoreAppendAfterTornTail(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFile), []byte(`{"schema_version":2,"key":"tor`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, v := testKeyV2("after-crash", 1), testStats(5)
	if err := s.Append(Entry{Key: k, Stats: v}); err != nil {
		t.Fatal(err)
	}
	reloadOne(t, s, k, v)
}

// TestDiskStoreAppendAfterFailedAppend pins the write after a failed Append:
// every attempt of the first append tears half a record into the log and
// fails, and the next, acknowledged append must still start a line of its
// own.
func TestDiskStoreAppendAfterFailedAppend(t *testing.T) {
	t.Parallel()

	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.backoff = time.Microsecond
	s.appendFault = func() error {
		if _, err := s.log.WriteString(`{"key":"tor`); err != nil {
			return err
		}
		return fmt.Errorf("persistent: write interrupted")
	}
	if err := s.Append(Entry{Key: testKeyV2("doomed", 1), Stats: testStats(3)}); err == nil {
		t.Fatal("append whose every attempt tears should fail")
	}
	s.appendFault = nil
	k, v := testKeyV2("after-failure", 1), testStats(4)
	if err := s.Append(Entry{Key: k, Stats: v}); err != nil {
		t.Fatal(err)
	}
	reloadOne(t, s, k, v)
}

// TestStoresSkipOverlongLine pins replay past a line longer than
// maxLineBytes, such as the unflushed NUL region a crash can leave: both
// tiers open, skip that line and load the records on either side of it.
func TestStoresSkipOverlongLine(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	nuls := make([]byte, maxLineBytes+1<<20)
	frame := func(before, after []byte) []byte {
		data := append(append(append([]byte(nil), before...), '\n'), nuls...)
		return append(append(append(data, '\n'), after...), '\n')
	}
	var lines [2][]byte
	for i := range lines {
		var err error
		if lines[i], err = json.Marshal(record{SchemaVersion: StoreSchemaVersion, Key: testKeyV2("long", i), Stats: testStats(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, logFile), frame(lines[0], lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		var err error
		cp := testCheckpoint(128*(i+1), 1024, []byte(strconv.Itoa(i+1)))
		if lines[i], err = json.Marshal(newCheckpointRecord(testKeyV2("long", i), cp)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointLogFile), frame(lines[0], lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}

	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := loadAll(t, ds); len(got) != 2 {
		t.Errorf("result store loaded %d records around the over-long line, want 2", len(got))
	}
	if skipped := ds.Skipped(); skipped != 1 {
		t.Errorf("result store skipped %d lines, want 1 (the over-long one)", skipped)
	}
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if cells := cs.Stats().Cells; cells != 2 {
		t.Errorf("checkpoint store indexed %d cells around the over-long line, want 2", cells)
	}
}

// TestDiskStoreAppendExhaustsRetries pins the persistent-failure path: when
// every attempt fails, Append returns the last error after maxRetries extra
// attempts, and the retry counter records them.
func TestDiskStoreAppendExhaustsRetries(t *testing.T) {
	t.Parallel()

	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.maxRetries, s.backoff = 3, time.Microsecond
	defer s.Close()
	attempts := 0
	s.appendFault = func() error {
		attempts++
		return fmt.Errorf("persistent: read-only filesystem")
	}
	err = s.Append(Entry{Key: testKeyV2("doomed", 1), Stats: testStats(3)})
	if err == nil {
		t.Fatal("append against a persistently failing disk should error")
	}
	if attempts != 4 { // the initial try + 3 retries
		t.Errorf("made %d attempts, want 4", attempts)
	}
	if got := s.Retries(); got != 3 {
		t.Errorf("Retries() = %d, want 3", got)
	}
}

// TestCacheStatsSurfacesStoreRetries pins the /stats wiring: a retried
// append shows up as StoreRetries on the cache's stats without counting as a
// store error.
func TestCacheStatsSurfacesStoreRetries(t *testing.T) {
	t.Parallel()

	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.backoff = time.Microsecond
	failures := 2
	s.appendFault = func() error {
		if failures > 0 {
			failures--
			return fmt.Errorf("transient")
		}
		return nil
	}
	c, err := NewWithStore(8, s)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Do(context.Background(), testKeyV2("cell", 1),
		func(context.Context) (sim.TrialStats, error) { return testStats(1), nil })
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.StoreRetries != 2 {
		t.Errorf("StoreRetries = %d, want 2", st.StoreRetries)
	}
	if st.StoreErrors != 0 {
		t.Errorf("StoreErrors = %d after a successful retried append, want 0", st.StoreErrors)
	}
	if st.Persisted != 1 {
		t.Errorf("Persisted = %d, want 1", st.Persisted)
	}
}

// FuzzStoreReplay writes arbitrary bytes as each tier's log and opens the
// tier on them. Opening never panics or fails on damaged content; the result
// store accounts for every non-blank line, either emitting it or counting it
// in Skipped(), and the checkpoint store indexes only records recordUsable
// accepts.
func FuzzStoreReplay(f *testing.F) {
	result, err := json.Marshal(record{SchemaVersion: StoreSchemaVersion, Key: testKeyV2("seed"), Stats: testStats(3)})
	if err != nil {
		f.Fatal(err)
	}
	checkpoint, err := json.Marshal(newCheckpointRecord(testKeyV2("seed"), testCheckpoint(256, 1024, []byte("[1,2]"))))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(result, '\n'))
	f.Add(append(append(checkpoint, '\n'), checkpoint...))
	f.Add([]byte(fmt.Sprintf("%s\n \r\n%s\n{\"schema_version\": %d, \"key\": \"torn", result, checkpoint, StoreSchemaVersion)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, name := range []string{logFile, checkpointLogFile} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		ds, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		if err := ds.Load(func(Entry) { emitted++ }); err != nil {
			t.Fatalf("Load: %v", err)
		}
		nonBlank := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				nonBlank++
			}
		}
		if emitted+ds.Skipped() != nonBlank {
			t.Fatalf("%d non-blank lines, but %d emitted and %d skipped", nonBlank, emitted, ds.Skipped())
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}

		cs, err := OpenCheckpointStore(dir)
		if err != nil {
			t.Fatalf("OpenCheckpointStore: %v", err)
		}
		for key, list := range cs.index { //antlint:allow maporder every entry is checked; the order is irrelevant
			if len(list) > maxCheckpointsPerCell {
				t.Fatalf("%s: %d checkpoints indexed, cap %d", key, len(list), maxCheckpointsPerCell)
			}
			for _, cp := range list {
				if !recordUsable(newCheckpointRecord(key, cp)) {
					t.Fatalf("%s: indexed an unusable checkpoint %+v", key, cp)
				}
			}
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
