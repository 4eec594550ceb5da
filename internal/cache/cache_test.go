package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antsearch/internal/fault"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
)

func testStats(trials int) sim.TrialStats {
	return sim.TrialStats{NumAgents: 1, Distance: 1, Trials: trials}
}

// lookup returns the value cached under key without computing one: Do on a
// cached key is a hit, and on any other key its compute fails.
func lookup(c *Cache, key Key) (sim.TrialStats, bool) {
	v, cached, err := c.Do(context.Background(), key, func(context.Context) (sim.TrialStats, error) {
		return sim.TrialStats{}, errors.New("not cached")
	})
	return v, cached && err == nil
}

func TestDoComputesOnceThenHits(t *testing.T) {
	t.Parallel()

	c := New(8)
	calls := 0
	compute := func(context.Context) (sim.TrialStats, error) {
		calls++
		return testStats(7), nil
	}
	v, cached, err := c.Do(context.Background(), "k1", compute)
	if err != nil || cached || v.Trials != 7 {
		t.Fatalf("first Do = (%+v, %v, %v), want computed value", v, cached, err)
	}
	v, cached, err = c.Do(context.Background(), "k1", compute)
	if err != nil || !cached || v.Trials != 7 {
		t.Fatalf("second Do = (%+v, %v, %v), want cached value", v, cached, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.InFlight != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	t.Parallel()

	c := New(2)
	put := func(key Key, trials int) {
		_, _, err := c.Do(context.Background(), key, func(context.Context) (sim.TrialStats, error) {
			return testStats(trials), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	if _, ok := lookup(c, "a"); !ok { // touch a, making b the LRU entry
		t.Fatal("a should be cached")
	}
	put("c", 3)
	if c.Contains("b") {
		t.Error("b should have been evicted (least recently used)")
	}
	if !c.Contains("a") {
		t.Error("a should have survived")
	}
	if !c.Contains("c") {
		t.Error("c should be cached")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction and 2 entries", st)
	}
}

// TestSingleflightCollapse is the acceptance test for request deduplication:
// N concurrent identical requests run exactly one computation, with the
// counters proving it (1 miss, N-1 joins).
func TestSingleflightCollapse(t *testing.T) {
	t.Parallel()

	const n = 16
	c := New(8)
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func(context.Context) (sim.TrialStats, error) {
		computes.Add(1)
		<-release // hold the flight open until every caller has arrived
		return testStats(42), nil
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]sim.TrialStats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = c.Do(context.Background(), "shared", compute)
		}(i)
	}
	// Wait until the leader is computing and every other caller has joined.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Misses == 1 && st.Joined == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("callers never converged on one flight: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d computations, want 1", n, got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || vals[i].Trials != 42 {
			t.Errorf("caller %d got (%+v, %v)", i, vals[i], errs[i])
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Joined != n-1 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want 1 miss and %d joins", st, n-1)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	t.Parallel()

	c := New(8)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func(context.Context) (sim.TrialStats, error) {
		calls++
		return sim.TrialStats{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, cached, err := c.Do(context.Background(), "k", func(context.Context) (sim.TrialStats, error) {
		calls++
		return testStats(9), nil
	})
	if err != nil || cached || v.Trials != 9 {
		t.Fatalf("retry after error = (%+v, %v, %v)", v, cached, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestJoinedCallerHonoursItsOwnContext(t *testing.T) {
	t.Parallel()

	c := New(8)
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go c.Do(context.Background(), "slow", func(context.Context) (sim.TrialStats, error) {
		close(started)
		<-release
		return testStats(1), nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "slow", func(context.Context) (sim.TrialStats, error) {
		t.Error("a joined caller must not compute")
		return sim.TrialStats{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled joiner returned %v, want context.Canceled", err)
	}
}

// TestJoinerSurvivesLeaderCancellation pins the isolation property: when the
// leader's request dies of its own cancellation, a joined caller must not
// inherit the failure — it retries and completes the computation itself.
func TestJoinerSurvivesLeaderCancellation(t *testing.T) {
	t.Parallel()

	c := New(8)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(leaderCtx, "k", func(ctx context.Context) (sim.TrialStats, error) {
			close(leaderStarted)
			<-ctx.Done() // simulate the engine observing cancellation
			return sim.TrialStats{}, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader returned %v, want context.Canceled", err)
		}
	}()
	<-leaderStarted

	wg.Add(1)
	var joinerVal sim.TrialStats
	var joinerErr error
	go func() {
		defer wg.Done()
		joinerVal, _, joinerErr = c.Do(context.Background(), "k", func(context.Context) (sim.TrialStats, error) {
			return testStats(5), nil
		})
	}()
	// Wait for the joiner to attach to the leader's flight, then kill the
	// leader out from under it.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Joined == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	wg.Wait()

	if joinerErr != nil {
		t.Fatalf("joiner inherited the leader's death: %v", joinerErr)
	}
	if joinerVal.Trials != 5 {
		t.Errorf("joiner value = %+v, want the retried computation", joinerVal)
	}
}

// TestFingerprintSeparatorCollision is the regression test for the keying
// bugfix: the old scheme joined %v-rendered parts with a bare \x1f, so a
// part containing \x1f collided with the adjacent-parts rendering. Length
// prefixing makes every part list unambiguous whatever bytes the parts
// contain.
func TestFingerprintSeparatorCollision(t *testing.T) {
	t.Parallel()

	collisions := []struct {
		name string
		a, b []any
	}{
		{"embedded separator", []any{"a\x1fb"}, []any{"a", "b"}},
		{"separator with tail", []any{"a\x1fb", "c"}, []any{"a", "b", "c"}},
		{"empty part vs absent part", []any{"a", ""}, []any{"a"}},
		{"digits bleeding into length prefix", []any{"1", "2"}, []any{"12"}},
		{"rendered numbers vs strings stay equal-safe", []any{1, 2}, []any{12}},
	}
	for _, c := range collisions {
		if fingerprint(c.a...) == fingerprint(c.b...) {
			t.Errorf("%s: fingerprint(%q) collides with fingerprint(%q)", c.name, c.a, c.b)
		}
	}
	if fingerprint("a", "b") != fingerprint("a", "b") {
		t.Error("identical part lists must agree")
	}
}

// TestCellKeyCarriesSchemaVersion pins the visible key versioning the
// durable store depends on: keys built today are recognisably
// current-schema, unprefixed (v1-era) keys are not, and the bytes of a
// current key do not drift without a KeySchemaVersion bump.
func TestCellKeyCarriesSchemaVersion(t *testing.T) {
	t.Parallel()

	faulty := scenario.Cell{Scenario: "known-k", K: 4, D: 16, Trials: 32, MaxTime: 100, Seed: 7,
		Faults: &fault.Plan{CrashProb: 0.25, CrashBy: 64}}
	const want = Key("v3:ee2a06d2679f3863903f4463a06ba272ac3b6fb6c943ab444ae4c360be1005b4")
	if got := CellKey(faulty, scenario.DefaultParams()); got != want {
		t.Errorf("CellKey = %q, want the stored-key literal %q", got, want)
	}

	k := CellKey(scenario.Cell{Scenario: "known-k", K: 1, D: 4, Trials: 2, Seed: 1}, scenario.DefaultParams())
	if !k.CurrentSchema() {
		t.Errorf("CellKey %q does not carry the current schema prefix", k)
	}
	if fingerprint("bare").CurrentSchema() {
		t.Error("a bare fingerprint must not pass as a current-schema cell key")
	}
}

func TestCellKeyDiscriminates(t *testing.T) {
	t.Parallel()

	base := scenario.Cell{Scenario: "known-k", K: 4, D: 16, Trials: 32, MaxTime: 0, Seed: 1}
	p := scenario.DefaultParams()

	if CellKey(base, p) != CellKey(base, p) {
		t.Error("identical configurations must share a key")
	}
	mutations := map[string]func() Key{
		"scenario": func() Key { c := base; c.Scenario = "uniform"; return CellKey(c, p) },
		"k":        func() Key { c := base; c.K = 5; return CellKey(c, p) },
		"d":        func() Key { c := base; c.D = 17; return CellKey(c, p) },
		"trials":   func() Key { c := base; c.Trials = 33; return CellKey(c, p) },
		"maxTime":  func() Key { c := base; c.MaxTime = 100; return CellKey(c, p) },
		"seed":     func() Key { c := base; c.Seed = 2; return CellKey(c, p) },
		"epsilon":  func() Key { q := p; q.Epsilon = 0.7; return CellKey(base, q) },
		"delta":    func() Key { q := p; q.Delta = 0.7; return CellKey(base, q) },
		"rho":      func() Key { q := p; q.Rho = 3; return CellKey(base, q) },
		"mu":       func() Key { q := p; q.Mu = 2.5; return CellKey(base, q) },
		"paramD":   func() Key { q := p; q.D = 9; return CellKey(base, q) },
	}
	ref := CellKey(base, p)
	seen := map[Key]string{ref: "base"}
	for name, mutate := range mutations {
		k := mutate()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// failingStore fails exactly where the test tells it to; everything else is
// a no-op in-memory Store.
type failingStore struct {
	snapshotErr error
	closeErr    error
}

func (s *failingStore) Load(func(Entry)) error { return nil }
func (s *failingStore) Append(Entry) error     { return nil }
func (s *failingStore) Snapshot([]Entry) error { return s.snapshotErr }
func (s *failingStore) Close() error           { return s.closeErr }

// TestCloseJoinsSnapshotAndCloseErrors is the regression test for the defect
// the storeerr audit surfaced: when the shutdown snapshot AND the store's
// Close both failed, Close returned only the snapshot error — the close
// failure was silently dropped and never counted. Both errors must surface
// (errors.Is through the join) and both must count as store errors.
func TestCloseJoinsSnapshotAndCloseErrors(t *testing.T) {
	t.Parallel()

	snapErr := errors.New("snapshot failed")
	closeErr := errors.New("close failed")
	c, err := NewWithStore(4, &failingStore{snapshotErr: snapErr, closeErr: closeErr})
	if err != nil {
		t.Fatalf("NewWithStore: %v", err)
	}
	err = c.Close()
	if !errors.Is(err, snapErr) {
		t.Errorf("Close error %v does not wrap the snapshot failure", err)
	}
	if !errors.Is(err, closeErr) {
		t.Errorf("Close error %v does not wrap the store-close failure (the dropped error this test pins)", err)
	}
	if st := c.Stats(); st.StoreErrors != 2 {
		t.Errorf("StoreErrors = %d after failed snapshot and failed close, want 2", st.StoreErrors)
	}

	// The close failure alone must also surface and count.
	c2, err := NewWithStore(4, &failingStore{closeErr: closeErr})
	if err != nil {
		t.Fatalf("NewWithStore: %v", err)
	}
	if err := c2.Close(); !errors.Is(err, closeErr) {
		t.Errorf("Close error %v does not surface the store-close failure", err)
	}
	if st := c2.Stats(); st.StoreErrors != 1 {
		t.Errorf("StoreErrors = %d after failed close, want 1", st.StoreErrors)
	}
}
