package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"antsearch/internal/core"
	"antsearch/internal/stats"
)

// memCheckpointer is an in-memory Checkpointer for tests: it records every
// Save and serves Load from the recorded states, optionally failing the run
// mid-flight to simulate a crash.
type memCheckpointer struct {
	saved []CheckpointState
	// failAfter, when > 0, makes the failAfter-th Save call invoke kill and
	// drop every later Save — simulating a process that died right after
	// persisting its failAfter-th checkpoint: cancellation lets in-flight
	// merges drain, but a dead process writes nothing more to disk.
	failAfter int
	kill      func()
	dead      bool
	saveErr   error // returned by Save (the engine must shrug it off)
}

func (m *memCheckpointer) Load(valid func(CheckpointState) bool) (CheckpointState, bool) {
	// Longest prefix first, like the durable store.
	sorted := append([]CheckpointState(nil), m.saved...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TrialsDone > sorted[j].TrialsDone })
	for _, cp := range sorted {
		if valid(cp) {
			return cp, true
		}
	}
	return CheckpointState{}, false
}

func (m *memCheckpointer) Save(cp CheckpointState) error {
	if m.saveErr != nil {
		return m.saveErr
	}
	if m.dead {
		return nil
	}
	m.saved = append(m.saved, cp)
	if m.failAfter > 0 && len(m.saved) == m.failAfter {
		m.dead = true
		if m.kill != nil {
			m.kill()
		}
	}
	return nil
}

func checkpointTestConfig(t *testing.T, trials, workers int) TrialConfig {
	t.Helper()
	return TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 4,
		Distance:  8,
		Trials:    trials,
		Seed:      11,
		Workers:   workers,
	}
}

func statsJSON(t *testing.T, st TrialStats) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTrialStateJSONRoundTrip pins the checkpoint codec: a decoded state
// re-encodes to the same bytes and evolves exactly like the original.
func TestTrialStateJSONRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(5, 23))
	result := func(foundP float64, maxTime, survivors int) Result {
		found := rng.Float64() < foundP
		return Result{
			Found: found, Capped: !found,
			Time: 1 + rng.IntN(maxTime), Finder: rng.IntN(4),
			Survivors: survivors, Distance: 8, LowerBound: 24,
		}
	}
	for _, trials := range []int{0, 1, 77, stats.MergeReplayCap, 1500} {
		a := newTrialState(4, 8)
		for i := 0; i < trials; i++ {
			a.add(result(0.9, 500, 4))
		}
		data := marshalState(t, &a)
		var b trialState
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatalf("trials=%d: %v", trials, err)
		}
		if !bytes.Equal(marshalState(t, &b), data) {
			t.Fatalf("trials=%d: decoded state re-encodes differently", trials)
		}
		// The decoded state must evolve identically: fold the same suffix
		// into both and compare the full JSON-rendered aggregates.
		for i := 0; i < 300; i++ {
			r := result(0.8, 900, 3)
			a.add(r)
			b.add(r)
		}
		if got, want := statsJSON(t, b.snapshot()), statsJSON(t, a.snapshot()); got != want {
			t.Fatalf("trials=%d: round-tripped state diverged\n got %s\nwant %s", trials, got, want)
		}
	}
}

func marshalState(t testing.TB, s *trialState) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTrialAccumulatorUnmarshalRejectsDamage(t *testing.T) {
	t.Parallel()

	const trials = 20
	a := newTrialState(2, 8)
	for i := 0; i < trials; i++ {
		a.add(Result{Found: true, Time: i + 1, Survivors: 2, Distance: 8, LowerBound: 40})
	}
	good := marshalState(t, &a)
	ratio, err := json.Marshal(a.ratio)
	if err != nil {
		t.Fatal(err)
	}
	// damaged re-encodes the good state's wire form after damage.
	damaged := func(damage func(w *trialStateJSON)) []byte {
		var w trialStateJSON
		if err := json.Unmarshal(good, &w); err != nil {
			t.Fatal(err)
		}
		damage(&w)
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, data := range map[string][]byte{
		"empty":            nil,
		"null":             []byte("null"),
		"truncated":        good[:len(good)-5],
		"trailing":         append(append([]byte(nil), good...), '0'),
		"unknown field":    append([]byte(`{"log":[],`), good[1:]...),
		"bad version":      damaged(func(w *trialStateJSON) { w.Version++ }),
		"previous version": damaged(func(w *trialStateJSON) { w.Version-- }),
		"negative trials":  damaged(func(w *trialStateJSON) { w.Trials = -1 }),
		"negative found":   damaged(func(w *trialStateJSON) { w.Found = -1 }),
		"negative capped":  damaged(func(w *trialStateJSON) { w.Capped = -1 }),
		"found > trials":   damaged(func(w *trialStateJSON) { w.Found = trials + 1 }),
		"capped > trials":  damaged(func(w *trialStateJSON) { w.Capped = trials + 1 }),
		"missing sketch":   damaged(func(w *trialStateJSON) { w.FoundTimes = nil }),
		"damaged sketch":   bytes.Replace(good, []byte(`"cap":1024`), []byte(`"cap":3`), 1),
		// A field JSON lets go missing, or write in another form, would
		// decode as a plausible state with a wrong count or statistic.
		"missing count":     bytes.Replace(good, []byte(`"found":20,`), nil, 1),
		"missing statistic": bytes.Replace(good, []byte(`"mean":10.5,`), nil, 1),
		"null accumulator":  bytes.Replace(good, append([]byte(`"ratio":`), ratio...), []byte(`"ratio":null`), 1),
		"reformatted":       bytes.Replace(good, []byte(`"trials":20`), []byte(`"trials": 20`), 1),
		"renamed key":       bytes.Replace(good, []byte(`"trials":`), []byte(`"Trials":`), 1),
		"other number form": bytes.Replace(good, []byte(`"mean":10.5,`), []byte(`"mean":10.50,`), 1),
	} {
		b := newTrialState(3, 5)
		if err := json.Unmarshal(data, &b); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
		if b.numAgents != 3 || b.distance != 5 || b.trials != 0 {
			t.Errorf("%s: a rejected state changed the receiver", name)
		}
	}
}

// FuzzTrialAccumulatorUnmarshal feeds arbitrary bytes to the checkpoint
// state decoder, and through it to the stats.Accumulator and stats.Sketch
// decoders; a resuming MonteCarlo hands them whatever a checkpoint store
// holds. Decoding must never panic, an accepted state must re-encode to a
// fixed point — decoding its encoding and encoding again reproduces it byte
// for byte — and it must keep folding trials. The seeds are real states with
// both quantile sketches in exact mode (few trials) and in estimation mode
// (past the sketch cap); the committed corpus holds crashers of an earlier
// binary form, which must now simply fail to decode.
func FuzzTrialAccumulatorUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, trials := range []int{0, 3, 2 * stats.DefaultSketchCap} {
		a := newTrialState(4, 8)
		for i := 0; i < trials; i++ {
			found := rng.Float64() < 0.9
			a.add(Result{Found: found, Capped: !found, Time: 1 + rng.IntN(500), Survivors: 4, Distance: 8, LowerBound: 24})
		}
		f.Add(marshalState(f, &a))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a trialState
		if json.Unmarshal(data, &a) != nil {
			return
		}
		enc := marshalState(t, &a)
		var b trialState
		if err := json.Unmarshal(enc, &b); err != nil {
			t.Fatalf("re-encoded accepted state is rejected: %v", err)
		}
		if again := marshalState(t, &b); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n first %s\nsecond %s", enc, again)
		}
		b.add(Result{Found: true, Time: 7, Survivors: 4, Distance: 8, LowerBound: 24})
		_ = b.snapshot()
	})
}

func TestMonteCarloProgressReports(t *testing.T) {
	t.Parallel()

	cfg := checkpointTestConfig(t, 256, 4)
	var updates []Progress
	cfg.Progress = func(p Progress) { updates = append(updates, p) }
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no progress updates fired")
	}
	last := updates[len(updates)-1]
	if last.ShardsDone != last.TotalShards || last.TrialsDone != cfg.Trials {
		t.Fatalf("final update incomplete: %+v", last)
	}
	if last.Stats.Trials != st.Trials || last.Stats.Found != st.Found {
		t.Fatalf("final snapshot differs from the returned stats: %+v vs %+v", last.Stats, st)
	}
	prev := 0
	for _, p := range updates {
		if p.ShardsDone <= prev {
			t.Fatalf("progress not strictly advancing: %d after %d", p.ShardsDone, prev)
		}
		if p.TrialsDone > cfg.Trials || p.TotalTrials != cfg.Trials {
			t.Fatalf("bad trial accounting: %+v", p)
		}
		if p.Stats.Trials != p.TrialsDone {
			t.Fatalf("snapshot covers %d trials, reported %d done", p.Stats.Trials, p.TrialsDone)
		}
		prev = p.ShardsDone
	}
	// The hook must not perturb the result.
	plain := checkpointTestConfig(t, 256, 4)
	ref, err := MonteCarlo(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, ref) {
		t.Fatal("progress hook changed the aggregate")
	}
}

func TestMonteCarloProgressStride(t *testing.T) {
	t.Parallel()

	cfg := checkpointTestConfig(t, 2048, 16) // 16 shards of 128
	cfg.ProgressEvery = 3
	var shardsSeen []int
	cfg.Progress = func(p Progress) { shardsSeen = append(shardsSeen, p.ShardsDone) }
	if _, err := MonteCarlo(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(shardsSeen) == 0 {
		t.Fatal("no progress updates fired")
	}
	// Every interior update lands on a stride multiple; the final shard always
	// reports regardless of alignment.
	for _, s := range shardsSeen[:len(shardsSeen)-1] {
		if s%3 != 0 {
			t.Fatalf("stride 3 fired at shard %d (all: %v)", s, shardsSeen)
		}
	}
	if last := shardsSeen[len(shardsSeen)-1]; last != 16 {
		t.Fatalf("final report at shard %d, want 16 (all: %v)", last, shardsSeen)
	}
}

// TestMonteCarloCheckpointResumeProperty is the kill-and-resume property
// test: interrupt a run right after a random checkpoint (the crash loses
// everything in memory, keeps everything Saved), resume from the persisted
// states, and require the final aggregate byte-identical to an uninterrupted
// run — over random kill points and across worker counts.
func TestMonteCarloCheckpointResumeProperty(t *testing.T) {
	t.Parallel()

	const trials = 2048 // 16 shards of 128 at 16 workers
	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, trials, 16))
	if err != nil {
		t.Fatal(err)
	}
	refJSON := statsJSON(t, ref)

	rng := rand.New(rand.NewPCG(99, 1))
	for round := 0; round < 6; round++ {
		killAfter := 1 + rng.IntN(6) // kill after the k-th persisted checkpoint
		ctx, cancel := context.WithCancel(context.Background())
		ck := &memCheckpointer{failAfter: killAfter, kill: cancel}
		cfg := checkpointTestConfig(t, trials, 16)
		cfg.Checkpointer = ck
		cfg.CheckpointEvery = 2
		_, err := MonteCarlo(ctx, cfg)
		cancel()
		if err == nil {
			// The run outpaced the kill (all shards merged before the k-th
			// save); nothing to resume, try the next round.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: unexpected error %v", round, err)
		}
		if len(ck.saved) == 0 {
			t.Fatalf("round %d: killed before any checkpoint", round)
		}

		// Resume: same config, fresh context, the survivor's persisted states.
		resumed := &memCheckpointer{saved: ck.saved}
		cfg2 := checkpointTestConfig(t, trials, 16)
		cfg2.Checkpointer = resumed
		cfg2.CheckpointEvery = 2
		var first Progress
		gotFirst := false
		cfg2.Progress = func(p Progress) {
			if !gotFirst {
				first, gotFirst = p, true
			}
		}
		st, err := MonteCarlo(context.Background(), cfg2)
		if err != nil {
			t.Fatalf("round %d: resume failed: %v", round, err)
		}
		if !gotFirst || first.ResumedShards == 0 {
			t.Fatalf("round %d: resume did not restore any shards (first update %+v)", round, first)
		}
		if got := statsJSON(t, st); got != refJSON {
			t.Fatalf("round %d (kill after save %d): resumed aggregate differs from uninterrupted run\n got %s\nwant %s",
				round, killAfter, got, refJSON)
		}
	}
}

// TestMonteCarloCheckpointResumeAcrossWorkerCounts pins the cross-plan
// resume: a checkpoint written under one worker count resumes under every
// other, whether or not its prefix lands on a shard boundary of the new
// plan, and the result is still bit-identical.
func TestMonteCarloCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	t.Parallel()

	const trials = 2048
	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, trials, 1))
	if err != nil {
		t.Fatal(err)
	}
	refJSON := statsJSON(t, ref)

	// Write checkpoints under workers=16 (16 shards of 128), killing after the
	// second save: persisted prefixes cover 256 and 512 trials. Resuming under
	// workers=1 or 2 (shards of 1024) starts inside a shard of the new plan;
	// workers=4 or 8 start on one of its boundaries. Every worker count must
	// resume and match the reference.
	ctx, cancel := context.WithCancel(context.Background())
	ck := &memCheckpointer{failAfter: 2, kill: cancel}
	cfg := checkpointTestConfig(t, trials, 16)
	cfg.Checkpointer = ck
	cfg.CheckpointEvery = 2
	_, err = MonteCarlo(ctx, cfg)
	cancel()
	if err == nil {
		t.Skip("run finished before the kill; machine too parallel for this fixture")
	}
	if len(ck.saved) == 0 {
		t.Fatal("no checkpoint persisted")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		resumed := &memCheckpointer{saved: ck.saved}
		cfg2 := checkpointTestConfig(t, trials, workers)
		cfg2.Checkpointer = resumed
		var first Progress
		gotFirst := false
		cfg2.Progress = func(p Progress) {
			if !gotFirst {
				first, gotFirst = p, true
			}
		}
		st, err := MonteCarlo(context.Background(), cfg2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := statsJSON(t, st); got != refJSON {
			t.Fatalf("workers=%d: resumed aggregate differs from reference", workers)
		}
		if !gotFirst || first.ResumedShards == 0 {
			t.Fatalf("workers=%d: resume restored no shards (first update at shard %d of %d)",
				workers, first.ShardsDone, first.TotalShards)
		}
	}
}

// TestMonteCarloResumesFromAnyPrefix is the any-prefix property: a
// checkpoint built by folding the reference per-trial results of a random
// prefix — almost never a shard boundary of any plan — resumes under several
// worker counts, restores shards, and finishes byte-identical to an
// uninterrupted run.
func TestMonteCarloResumesFromAnyPrefix(t *testing.T) {
	t.Parallel()

	const trials = 3000
	results, err := MonteCarloResults(context.Background(), checkpointTestConfig(t, trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, trials, 1))
	if err != nil {
		t.Fatal(err)
	}
	refJSON := statsJSON(t, ref)

	rng := rand.New(rand.NewPCG(7, 19))
	prefixes := []int{1, 1024, 1025, trials - 1}
	for len(prefixes) < 10 {
		prefixes = append(prefixes, 1+rng.IntN(trials-1))
	}
	for _, done := range prefixes {
		acc := NewTrialAccumulator(4, 8)
		for _, r := range results[:done] {
			acc.Add(r)
		}
		state, err := json.Marshal(&acc.state)
		if err != nil {
			t.Fatal(err)
		}
		// A checkpoint counts at least one trial per shard, so prefix 1 claims one.
		cp := CheckpointState{ShardsDone: min(3, done), TrialsDone: done, TotalTrials: trials, State: state}
		for _, workers := range []int{1, 3} {
			cfg := checkpointTestConfig(t, trials, workers)
			cfg.Checkpointer = &memCheckpointer{saved: []CheckpointState{cp}}
			var last Progress
			cfg.Progress = func(p Progress) { last = p }
			st, err := MonteCarlo(context.Background(), cfg)
			if err != nil {
				t.Fatalf("prefix %d, workers=%d: %v", done, workers, err)
			}
			if got := statsJSON(t, st); got != refJSON {
				t.Fatalf("prefix %d, workers=%d: resumed aggregate differs from the uninterrupted run", done, workers)
			}
			if last.ResumedShards != cp.ShardsDone || last.ShardsDone != last.TotalShards || last.ShardsDone <= cp.ShardsDone {
				t.Fatalf("prefix %d, workers=%d: final progress (shard %d of %d, %d resumed) does not continue checkpoint shard %d",
					done, workers, last.ShardsDone, last.TotalShards, last.ResumedShards, cp.ShardsDone)
			}
		}
	}
}

// TestMonteCarloCheckpointSaveErrorsIgnored pins the degradation contract: a
// Checkpointer whose Save always fails must not fail or perturb the run.
func TestMonteCarloCheckpointSaveErrorsIgnored(t *testing.T) {
	t.Parallel()

	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, 512, 2))
	if err != nil {
		t.Fatal(err)
	}
	ck := &memCheckpointer{saveErr: errors.New("disk full")}
	cfg := checkpointTestConfig(t, 512, 2)
	cfg.Checkpointer = ck
	cfg.CheckpointEvery = 1
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatalf("failing Save surfaced: %v", err)
	}
	if statsJSON(t, st) != statsJSON(t, ref) {
		t.Fatal("failing Save perturbed the aggregate")
	}
}

// TestMonteCarloRejectsForeignCheckpoints pins that mismatched checkpoints —
// wrong trial totals, corrupt state, state that does not cover the claimed
// prefix — are ignored and the run recomputes from scratch with the correct
// result.
func TestMonteCarloRejectsForeignCheckpoints(t *testing.T) {
	t.Parallel()

	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, 512, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Build one genuine checkpoint for a DIFFERENT trial budget plus one
	// corrupt state for the right budget.
	donor := &memCheckpointer{}
	cfgDonor := checkpointTestConfig(t, 1024, 2)
	cfgDonor.Checkpointer = donor
	cfgDonor.CheckpointEvery = 1
	if _, err := MonteCarlo(context.Background(), cfgDonor); err != nil {
		t.Fatal(err)
	}
	if len(donor.saved) == 0 {
		t.Fatal("donor run saved nothing")
	}
	bad := append([]CheckpointState(nil), donor.saved...)
	// A prefix of the right budget whose state bytes are garbage: it must
	// fail decoding.
	bad = append(bad, CheckpointState{
		ShardsDone: 1, TrialsDone: 256, TotalTrials: 512,
		State: []byte{0xde, 0xad},
	})
	// A genuine state whose trial count is not the prefix it claims.
	bad = append(bad, CheckpointState{
		ShardsDone: 1, TrialsDone: 300, TotalTrials: 512,
		State: donor.saved[0].State,
	})
	cfg := checkpointTestConfig(t, 512, 2)
	var first Progress
	cfg.Progress = func(p Progress) {
		if first.ShardsDone == 0 {
			first = p
		}
	}
	cfg.Checkpointer = &memCheckpointer{saved: bad}
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, ref) {
		t.Fatal("foreign checkpoints perturbed the aggregate")
	}
	if first.ResumedShards != 0 {
		t.Fatalf("resumed %d shards from a foreign checkpoint", first.ResumedShards)
	}
}

// TestMonteCarloRejectsImpossibleShardCounts pins that a checkpoint must
// count at least one shard and no more shards than trials (every shard holds
// a trial): a genuine 128-trial prefix resumes under 1 or 128 shards and is
// ignored under any other count, whose shard total would otherwise run past
// the trials or wrap negative.
func TestMonteCarloRejectsImpossibleShardCounts(t *testing.T) {
	t.Parallel()

	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, 512, 2))
	if err != nil {
		t.Fatal(err)
	}
	results, err := MonteCarloResults(context.Background(), checkpointTestConfig(t, 128, 2))
	if err != nil {
		t.Fatal(err)
	}
	prefix := newTrialState(4, 8)
	for _, r := range results {
		prefix.add(r)
	}
	state := marshalState(t, &prefix)
	for _, tc := range []struct{ shards, resumed int }{
		{1, 1}, {128, 128}, {0, 0}, {-1, 0}, {129, 0}, {1000, 0}, {math.MaxInt - 1, 0},
	} {
		cfg := checkpointTestConfig(t, 512, 2)
		cfg.Checkpointer = &memCheckpointer{saved: []CheckpointState{
			{ShardsDone: tc.shards, TrialsDone: 128, TotalTrials: 512, State: state},
		}}
		var last Progress
		cfg.Progress = func(p Progress) { last = p }
		st, err := MonteCarlo(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if statsJSON(t, st) != statsJSON(t, ref) {
			t.Fatalf("shards_done %d: the aggregate differs from an uninterrupted run", tc.shards)
		}
		if last.ResumedShards != tc.resumed || last.ShardsDone != last.TotalShards || last.TotalShards <= 0 {
			t.Fatalf("shards_done %d: final progress shard %d of %d with %d resumed, want %d resumed",
				tc.shards, last.ShardsDone, last.TotalShards, last.ResumedShards, tc.resumed)
		}
	}
}
