package cache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"antsearch/internal/core"
	"antsearch/internal/sim"
)

func testCheckpoint(trialsDone, totalTrials int, state []byte) sim.CheckpointState {
	return sim.CheckpointState{
		ShardsDone:  trialsDone / 128,
		TrialsDone:  trialsDone,
		TotalTrials: totalTrials,
		State:       state,
	}
}

func TestCheckpointStoreSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKeyV2("cell-a")
	ck := s.ForCell(key)
	for _, done := range []int{128, 256, 384} {
		if err := ck.Save(testCheckpoint(done, 1024, []byte(fmt.Sprintf("[1,%d]", done/128)))); err != nil {
			t.Fatal(err)
		}
	}
	// Load prefers the largest prefix the predicate accepts.
	cp, ok := ck.Load(func(sim.CheckpointState) bool { return true })
	if !ok || cp.TrialsDone != 384 {
		t.Fatalf("Load = %+v, %v; want largest prefix 384", cp, ok)
	}
	// A pickier predicate falls back to smaller prefixes.
	cp, ok = ck.Load(func(c sim.CheckpointState) bool { return c.TrialsDone <= 200 })
	if !ok || cp.TrialsDone != 128 {
		t.Fatalf("fallback Load = %+v, %v; want 128", cp, ok)
	}
	// Other cells see nothing.
	if _, ok := s.ForCell(testKeyV2("cell-b")).Load(func(sim.CheckpointState) bool { return true }); ok {
		t.Fatal("foreign cell loaded a checkpoint")
	}
	st := s.Stats()
	if st.Saved != 3 || st.ResumedRuns != 2 || st.Cells != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the persisted checkpoints survive, newest still preferred.
	s2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cp, ok = s2.ForCell(key).Load(func(sim.CheckpointState) bool { return true })
	if !ok || cp.TrialsDone != 384 || string(cp.State) != "[1,3]" {
		t.Fatalf("reloaded Load = %+v, %v", cp, ok)
	}
}

func TestCheckpointStoreKeepsLargestPrefixes(t *testing.T) {
	t.Parallel()

	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ck := s.ForCell(testKeyV2("cell"))
	for i := 1; i <= maxCheckpointsPerCell+4; i++ {
		if err := ck.Save(testCheckpoint(i*128, 1<<20, []byte("9"))); err != nil {
			t.Fatal(err)
		}
	}
	// Re-saving an existing prefix replaces, never duplicates.
	if err := ck.Save(testCheckpoint((maxCheckpointsPerCell+4)*128, 1<<20, []byte("10"))); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	list := s.index[testKeyV2("cell")]
	s.mu.Unlock()
	if len(list) != maxCheckpointsPerCell {
		t.Fatalf("index holds %d prefixes, want %d", len(list), maxCheckpointsPerCell)
	}
	if got := list[len(list)-1]; got.TrialsDone != (maxCheckpointsPerCell+4)*128 || string(got.State) != "10" {
		t.Fatalf("largest prefix = %+v", got)
	}
	if got := list[0].TrialsDone; got != 5*128 {
		t.Fatalf("smallest surviving prefix covers %d trials, want %d", got, 5*128)
	}
}

func TestCheckpointStorePrune(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	finished, running := testKeyV2("finished"), testKeyV2("running")
	for _, key := range []Key{finished, running} {
		ck := s.ForCell(key)
		for _, done := range []int{128, 256} {
			if err := ck.Save(testCheckpoint(done, 1024, []byte("1"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := s.Prune(func(k Key) bool { return k == finished }); n != 2 {
		t.Fatalf("Prune removed %d records, want 2", n)
	}
	if _, ok := s.ForCell(finished).Load(func(sim.CheckpointState) bool { return true }); ok {
		t.Fatal("pruned cell still loads")
	}
	if _, ok := s.ForCell(running).Load(func(sim.CheckpointState) bool { return true }); !ok {
		t.Fatal("unfinished cell lost its checkpoints")
	}
	if st := s.Stats(); st.Pruned != 2 || st.Cells != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Pruning compacts: the log is empty, the snapshot holds the survivor.
	if info, err := os.Stat(filepath.Join(dir, checkpointLogFile)); err != nil || info.Size() != 0 {
		t.Fatalf("log not truncated after prune: %v, %v", info, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.ForCell(finished).Load(func(sim.CheckpointState) bool { return true }); ok {
		t.Fatal("pruned cell resurrected on reload")
	}
	if _, ok := s2.ForCell(running).Load(func(sim.CheckpointState) bool { return true }); !ok {
		t.Fatal("survivor lost across reload")
	}
}

// TestCheckpointStoreDrop pins the finished-cell path: Drop forgets a cell's
// checkpoints in memory only (counted as pruned, the log untouched), and the
// next Prune compacts the log even though it removes nothing itself.
func TestCheckpointStoreDrop(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	finished, running := testKeyV2("finished"), testKeyV2("running")
	for _, key := range []Key{finished, running} {
		if err := s.ForCell(key).Save(testCheckpoint(128, 1024, []byte("1"))); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, checkpointLogFile)
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s.Drop(finished)
	s.Drop(testKeyV2("never-checkpointed"))
	if _, ok := s.ForCell(finished).Load(func(sim.CheckpointState) bool { return true }); ok {
		t.Fatal("dropped cell still loads")
	}
	if st := s.Stats(); st.Pruned != 1 || st.Cells != 1 {
		t.Fatalf("stats after drop = %+v", st)
	}
	if info, err := os.Stat(logPath); err != nil || info.Size() != before.Size() {
		t.Fatalf("drop touched the log: %v, %v", info, err)
	}
	if n := s.Prune(func(Key) bool { return false }); n != 0 {
		t.Fatalf("Prune removed %d records, want 0", n)
	}
	if info, err := os.Stat(logPath); err != nil || info.Size() != 0 {
		t.Fatalf("log not compacted after a drop: %v, %v", info, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Cells != 1 {
		t.Fatalf("reload holds %d cells, want only the running one", st.Cells)
	}
}

func TestCheckpointStoreSkipsDamagedRecords(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKeyV2("cell")
	if err := s.ForCell(key).Save(testCheckpoint(128, 1024, []byte("[1,2,3]"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the log: records claiming more shards than trials or none at
	// all, a record without a state, a foreign schema version and a torn
	// tail — all must be skipped on reload.
	f, err := os.OpenFile(filepath.Join(dir, checkpointLogFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	line := func(rec checkpointRecord) []byte {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	record := func(shards, trials int) checkpointRecord {
		return checkpointRecord{
			SchemaVersion: CheckpointSchemaVersion, Key: key,
			ShardsDone: shards, TrialsDone: trials, TotalTrials: 1024,
			State: json.RawMessage("[1]"),
		}
	}
	foreign := record(5, 640)
	foreign.SchemaVersion++
	for _, l := range [][]byte{
		line(record(257, 256)),
		line(record(math.MaxInt-1, 384)),
		line(record(0, 512)),
		bytes.Replace(line(record(6, 768)), []byte(`,"state":[1]`), nil, 1),
		line(foreign),
		[]byte(`{"schema_version":1,"key":"torn`),
	} {
		if _, err := f.Write(append(l, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	s2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := len(s2.index[key]); n != 1 {
		t.Fatalf("reload indexed %d records, want the one good record", n)
	}
	cp, ok := s2.ForCell(key).Load(func(sim.CheckpointState) bool { return true })
	if !ok || cp.TrialsDone != 128 {
		t.Fatalf("Load after damage = %+v, %v; want the one good record", cp, ok)
	}
	if st := s2.Stats(); st.ResumedShards != 1 {
		t.Fatalf("resumed_shards = %d, want the good record's 1", st.ResumedShards)
	}
}

func TestCheckpointStoreRefusesSecondClaim(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := OpenCheckpointStore(dir); err == nil {
		t.Fatal("second open of a claimed checkpoint dir succeeded")
	}
	// The result store's lock is separate: both tiers share the directory.
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("result store cannot share the directory: %v", err)
	}
	ds.Close()
}

func TestCellCheckpointerDisablesAfterPersistentFailures(t *testing.T) {
	t.Parallel()

	s, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck := s.ForCell(testKeyV2("cell"))
	// Close the store out from under the checkpointer: every save now fails.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cp := testCheckpoint(128, 1024, []byte("1"))
	for i := 0; i < cellCheckpointDisableAfter; i++ {
		if err := ck.Save(cp); err == nil {
			t.Fatalf("save %d succeeded on closed store", i)
		}
	}
	// Budget exhausted: further saves are silent no-ops, not repeated errors.
	if err := ck.Save(cp); err != nil {
		t.Fatalf("disabled checkpointer still surfaces errors: %v", err)
	}
	if st := s.Stats(); st.StoreErrors != cellCheckpointDisableAfter {
		t.Fatalf("store errors = %d, want %d", st.StoreErrors, cellCheckpointDisableAfter)
	}
}

// crashCellConfig is the fixed mega-cell the crash-resume harness runs, in
// both the child (killed mid-flight) and the parent (reference + resume). It
// must be big enough that the child reliably persists a checkpoint before
// finishing.
func crashCellConfig(t *testing.T) (sim.TrialConfig, Key) {
	t.Helper()
	cfg := sim.TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 4,
		Distance:  32,
		Trials:    1 << 15,
		Seed:      1234,
		Workers:   2,
	}
	return cfg, testKeyV2("crash-resume-cell")
}

// TestCheckpointCrashResumeHelper is not a test: it is the subprocess body
// of TestCheckpointCrashResume, re-executed from the test binary with the
// environment below, and SIGKILLed by its parent mid-run.
func TestCheckpointCrashResumeHelper(t *testing.T) {
	dir := os.Getenv("ANTSEARCH_CRASH_RESUME_DIR")
	if os.Getenv("ANTSEARCH_CRASH_RESUME_HELPER") != "1" || dir == "" {
		t.Skip("helper process only")
	}
	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg, key := crashCellConfig(t)
	cfg.Checkpointer = s.ForCell(key)
	cfg.CheckpointEvery = 1
	if _, err := sim.MonteCarlo(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Reaching here means the parent's kill lost the race; that's fine — the
	// checkpoints it saw on disk are still there for the resume.
}

// TestCheckpointCrashResume is the end-to-end crash test: run the mega-cell
// in a subprocess writing real checkpoints, SIGKILL it as soon as a
// checkpoint hits disk, then resume in-process from the survivor directory
// and require the final aggregate byte-identical to an uninterrupted run,
// with resumed work actually restored. Not parallel: until the child execs
// it holds copies of the parent's descriptors, flock'd store locks included,
// so a store a parallel test closes and reopens in that window would read as
// claimed by another process.
func TestCheckpointCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCheckpointCrashResumeHelper$")
	cmd.Env = append(os.Environ(),
		"ANTSEARCH_CRASH_RESUME_HELPER=1",
		"ANTSEARCH_CRASH_RESUME_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the child the moment its first checkpoint record is complete on
	// disk (a JSON line ends in "}\n"). A later record may still be mid-write
	// when the kill lands — exactly the torn tail the loader tolerates; a
	// kill inside the first record would leave nothing to resume.
	logPath := filepath.Join(dir, checkpointLogFile)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(logPath); err == nil && bytes.Contains(data, []byte("}\n")) {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("child persisted no checkpoint within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = cmd.Process.Kill() // SIGKILL: no deferred cleanup, no graceful close
	_ = cmd.Wait()

	cfg, key := crashCellConfig(t)
	ref, err := sim.MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	s, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg2, _ := crashCellConfig(t)
	cfg2.Checkpointer = s.ForCell(key)
	var resumedShards int
	gotFirst := false
	cfg2.Progress = func(p sim.Progress) {
		if !gotFirst {
			resumedShards, gotFirst = p.ResumedShards, true
		}
	}
	st, err := sim.MonteCarlo(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if resumedShards == 0 {
		t.Error("resume restored no shards despite persisted checkpoints")
	}
	if stats := s.Stats(); stats.ResumedRuns == 0 || stats.ResumedShards == 0 {
		t.Errorf("store counted no resume: %+v", stats)
	}
	gotJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(refJSON) {
		t.Errorf("resumed aggregate differs from uninterrupted run\n got %s\nwant %s", gotJSON, refJSON)
	}
}
