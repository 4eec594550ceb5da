package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antsearch/internal/agent"
	"antsearch/internal/cache"
	"antsearch/internal/core"
	"antsearch/internal/grid"
	"antsearch/internal/scenario"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// simulationsRun counts factory resolutions of the test-only scenario, i.e.
// how many simulations the engine actually started for it: the quantity the
// singleflight acceptance test pins to 1.
var simulationsRun atomic.Int64

func init() {
	inner := core.Factory()
	scenario.MustRegister(scenario.Scenario{
		Name:        "test-counting",
		Description: "test-only known-k wrapper that counts engine invocations",
		Build: func(scenario.Params) (agent.Factory, error) {
			return func(k int) agent.Algorithm {
				simulationsRun.Add(1)
				return inner(k)
			}, nil
		},
		Ks: []int{1}, Ds: []int{4}, Trials: 4,
	})
	scenario.MustRegister(scenario.Scenario{
		Name:        "test-failing-k4",
		Description: "test-only known-k wrapper whose k=4 searchers start off the source, which the engine rejects",
		Build: func(scenario.Params) (agent.Factory, error) {
			return func(k int) agent.Algorithm {
				if k == 4 {
					return offSourceAlgorithm{}
				}
				return inner(k)
			}, nil
		},
		Ks: []int{4}, Ds: []int{4}, Trials: 1,
	})
}

// offSourceAlgorithm's searchers begin one step east of the source, so every
// trial fails with sim.ErrDiscontinuousTrajectory.
type offSourceAlgorithm struct{}

func (offSourceAlgorithm) Name() string { return "off-source" }

func (offSourceAlgorithm) NewSearcher(agent.Searcher, *xrand.Stream, int) agent.Searcher {
	return offSourceSearcher{}
}

type offSourceSearcher struct{}

func (offSourceSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	return append(buf, trajectory.WalkSeg(grid.Point{X: 1}, grid.Point{X: 2})), true
}

func newTestServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func postSweep(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeRows(t *testing.T, resp *http.Response) []sweepRow {
	t.Helper()
	defer resp.Body.Close()
	var rows []sweepRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var row sweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestHealthz(t *testing.T) {
	t.Parallel()

	ts := newTestServer(t, serverConfig{CacheSize: 16})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestScenariosListsRegistry(t *testing.T) {
	t.Parallel()

	ts := newTestServer(t, serverConfig{CacheSize: 16})
	resp, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []scenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, info := range infos {
		names[info.Name] = true
	}
	for _, want := range []string{"known-k", "uniform", "harmonic", "levy"} {
		if !names[want] {
			t.Errorf("listing is missing %q", want)
		}
	}
}

func TestSweepStreamsNDJSONRows(t *testing.T) {
	t.Parallel()

	ts := newTestServer(t, serverConfig{CacheSize: 64})
	body := `{"scenarios": ["known-k", "uniform"], "ks": [1, 2], "ds": [5],
	          "trials": 6, "seed": 9, "params": {"epsilon": 0.5}}`

	resp := postSweep(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	rows := decodeRows(t, resp)
	if len(rows) != 4 { // 2 scenarios × 1 D × 2 ks
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	wantOrder := []struct {
		scn string
		k   int
	}{{"known-k", 1}, {"known-k", 2}, {"uniform", 1}, {"uniform", 2}}
	for i, row := range rows {
		if row.Error != "" {
			t.Fatalf("row %d carries an error: %s", i, row.Error)
		}
		if row.Index != i || row.Scenario != wantOrder[i].scn || row.K != wantOrder[i].k {
			t.Errorf("row %d = {index=%d %s k=%d}, want {index=%d %s k=%d}",
				i, row.Index, row.Scenario, row.K, i, wantOrder[i].scn, wantOrder[i].k)
		}
		if row.Stats == nil || row.Stats.Trials != 6 || row.Stats.NumAgents != row.K {
			t.Errorf("row %d stats = %+v", i, row.Stats)
		}
		if row.Cached {
			t.Errorf("row %d cached on a cold cache", i)
		}
	}

	// The identical request again: every row must now come from the cache
	// with byte-identical statistics.
	again := decodeRows(t, postSweep(t, ts.URL, body))
	if len(again) != len(rows) {
		t.Fatalf("second request returned %d rows", len(again))
	}
	for i := range again {
		if !again[i].Cached {
			t.Errorf("row %d not served from cache on the second request", i)
		}
		a, _ := json.Marshal(rows[i].Stats)
		b, _ := json.Marshal(again[i].Stats)
		if !bytes.Equal(a, b) {
			t.Errorf("row %d stats changed between identical requests:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestConcurrentIdenticalSweepsRunOneSimulation is the acceptance test for
// the serving tentpole: N simultaneous identical /sweep requests must cost
// exactly one simulation, with the cache counters proving the collapse.
func TestConcurrentIdenticalSweepsRunOneSimulation(t *testing.T) {
	srv, err := newServer(serverConfig{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	simulationsRun.Store(0)
	const n = 8
	body := `{"scenarios": ["test-counting"], "ks": [3], "ds": [4], "trials": 5, "seed": 7}`

	var wg sync.WaitGroup
	rows := make([][]sweepRow, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i] = decodeRows(t, postSweep(t, ts.URL, body))
		}(i)
	}
	wg.Wait()

	if got := simulationsRun.Load(); got != 1 {
		t.Errorf("%d concurrent identical sweeps ran %d simulations, want exactly 1", n, got)
	}
	for i := range rows {
		if len(rows[i]) != 1 || rows[i][0].Error != "" || rows[i][0].Stats == nil {
			t.Errorf("request %d rows = %+v", i, rows[i])
		}
	}
	st := srv.cache.Stats()
	if st.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Joined != n-1 {
		t.Errorf("hits (%d) + joined (%d) = %d, want %d requests deduplicated",
			st.Hits, st.Joined, st.Hits+st.Joined, n-1)
	}
}

func TestSweepErrors(t *testing.T) {
	t.Parallel()

	ts := newTestServer(t, serverConfig{CacheSize: 16, MaxCells: 3})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"invalid JSON", `{`, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"unknown scenario", `{"scenarios": ["nope"], "ks": [1], "ds": [4], "trials": 1}`, http.StatusBadRequest},
		{"zero k", `{"scenarios": ["known-k"], "ks": [0], "ds": [4], "trials": 1}`, http.StatusBadRequest},
		{"negative D", `{"scenarios": ["known-k"], "ks": [1], "ds": [-4], "trials": 1}`, http.StatusBadRequest},
		{"explicit D with multiple Ds", `{"scenarios": ["known-d"], "ks": [1], "ds": [4, 8], "trials": 1,
			"params": {"d": 4}}`, http.StatusBadRequest},
		{"too many cells", `{"scenarios": ["known-k"], "ks": [1, 2], "ds": [4, 8], "trials": 1}`,
			http.StatusRequestEntityTooLarge},
		// One request per body: anything but whitespace after it is refused,
		// not ignored.
		{"second JSON value", `{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 1} {"trials": 999999}`,
			http.StatusBadRequest},
		{"trailing garbage", `{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 1}garbage`,
			http.StatusBadRequest},
		// A one-cell grid padded past the body bound for MaxCells 3.
		{"oversized body", `{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 1` +
			strings.Repeat(" ", int(maxSweepBody(3))) + `}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp := postSweep(t, ts.URL, tc.body)
		var body map[string]string
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if err != nil || body["error"] == "" {
			t.Errorf("%s: expected a JSON error payload, got %v (%v)", tc.name, body, err)
		}
	}

	// Wrong method on /sweep.
	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep status = %d, want 405", resp.StatusCode)
	}
}

// TestSweepRejectsHugeGridBeforeExpanding pins the order of the size guard:
// a 17.8 KB body naming 2000 ks and 2000 ds expands to 4,000,000 cells, and
// the server must count them and answer 413 without building them (which
// costs about 2 GB). Not parallel: it reads the process-wide allocation
// counter.
func TestSweepRejectsHugeGridBeforeExpanding(t *testing.T) {
	srv, err := newServer(serverConfig{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.cache.Close() })
	body := hugeGridBody()
	handler := srv.routes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "4000000 cells") {
		t.Errorf("error %q does not report the grid's 4000000 cells", rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("rejecting the grid allocated %d bytes, want under 16 MiB", alloc)
	}
}

func TestStatsEndpoint(t *testing.T) {
	t.Parallel()

	ts := newTestServer(t, serverConfig{CacheSize: 16})
	decodeRows(t, postSweep(t, ts.URL,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 1}`))
	decodeRows(t, postSweep(t, ts.URL,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 1}`))

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, 1 hit, 1 entry", st.Cache)
	}
	if st.TotalSweeps != 2 || st.ActiveSweeps != 0 {
		t.Errorf("sweep counters = total %d active %d", st.TotalSweeps, st.ActiveSweeps)
	}
}

// TestSweepCellWorkersParity pins that the per-request split changes only
// scheduling. With a budget of 2 or 4 cores AutoSplit computes a grid of
// small cells several cells at a time, and a grid whose cells give every
// core a shard (40 and 41 trials) one cell at a time on all cores, its
// progress hook writing rows while the shards fold. Either way the result
// rows are byte-identical to the one-core run's.
func TestSweepCellWorkersParity(t *testing.T) {
	t.Parallel()

	urls := map[int]string{}
	for _, w := range []int{1, 2, 4} {
		urls[w] = newTestServer(t, serverConfig{CacheSize: 64, Workers: w}).URL
	}
	for _, tc := range []struct {
		body string
		rows int
	}{
		{`{"scenarios": ["known-k", "single-spiral"], "ks": [1, 2], "ds": [4, 6], "trials": 5, "seed": 11}`, 8},
		{`{"scenarios": ["known-k", "uniform"], "ks": [1, 4], "ds": [6], "trials": 40, "seed": 11,
			"params": {"epsilon": 0.5}, "progress": true}`, 4},
		{`{"scenarios": ["known-k", "uniform"], "ks": [1, 4], "ds": [6], "trials": 41, "seed": 11,
			"params": {"epsilon": 0.5}, "progress": true}`, 4},
	} {
		want := resultLines(t, postSweep(t, urls[1], tc.body))
		if len(want) != tc.rows {
			t.Fatalf("%s: one-core run streamed %d result rows, want %d", tc.body, len(want), tc.rows)
		}
		for _, w := range []int{2, 4} {
			got := resultLines(t, postSweep(t, urls[w], tc.body))
			if len(got) != tc.rows {
				t.Fatalf("%s, Workers=%d: %d result rows, want %d", tc.body, w, len(got), tc.rows)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: row %d differs between Workers=1 and Workers=%d:\n%s\nvs\n%s", tc.body, i, w, want[i], got[i])
				}
			}
		}
	}
}

// resultLines returns a /sweep response's result rows as raw NDJSON lines,
// skipping progress rows, whose shard counts depend on the core budget.
func resultLines(t *testing.T, resp *http.Response) []string {
	t.Helper()
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"type":"progress"`) {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepRowZeroCoordinatesSurvive is the regression test for the
// omitempty bugfix: a legitimate zero-valued coordinate (seed 0 above all)
// must appear explicitly in every NDJSON row, or clients re-keying results
// by coordinates see ambiguous rows.
func TestSweepRowZeroCoordinatesSurvive(t *testing.T) {
	t.Parallel()

	// Unit round-trip: a fully zero row keeps every coordinate key.
	line, err := json.Marshal(sweepRow{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"index":0`, `"scenario":""`, `"k":0`, `"d":0`, `"trials":0`, `"seed":0`} {
		if !strings.Contains(string(line), key) {
			t.Errorf("zero sweepRow %s is missing %s", line, key)
		}
	}
	var back sweepRow
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back != (sweepRow{}) {
		t.Errorf("zero sweepRow round-trips to %+v", back)
	}

	// End to end: a sweep with seed 0 streams rows that carry the seed.
	ts := newTestServer(t, serverConfig{CacheSize: 16})
	resp := postSweep(t, ts.URL, `{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 0}`)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"seed":0`) {
		t.Errorf("seed-0 sweep row dropped its seed: %s", raw)
	}
}

// TestSweepMetricsCountOnlyValidRequests pins the metrics bugfix: malformed
// and oversized bodies must not inflate the sweep counters — a sweep is
// counted only once its grid expanded and passed the size guard.
func TestSweepMetricsCountOnlyValidRequests(t *testing.T) {
	t.Parallel()

	srv, err := newServer(serverConfig{CacheSize: 16, MaxCells: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	for _, bad := range []string{
		`{`,            // malformed JSON
		`{"bogus": 1}`, // unknown field
		`{"scenarios": ["nope"], "ks": [1], "ds": [4], "trials": 1}`,          // invalid grid
		`{"scenarios": ["known-k"], "ks": [1, 2], "ds": [4, 8], "trials": 1}`, // oversized
	} {
		resp := postSweep(t, ts.URL, bad)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("request %q unexpectedly succeeded", bad)
		}
	}
	if got := srv.totalSweeps.Load(); got != 0 {
		t.Errorf("rejected requests inflated totalSweeps to %d", got)
	}

	decodeRows(t, postSweep(t, ts.URL, `{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 1}`))
	if got := srv.totalSweeps.Load(); got != 1 {
		t.Errorf("totalSweeps = %d after one valid sweep, want 1", got)
	}
	if got := srv.activeSweeps.Load(); got != 0 {
		t.Errorf("activeSweeps = %d at rest, want 0", got)
	}
}

// deadlineCtx is a hand-rolled context whose expiry the test controls
// exactly: expire() closes Done and makes Err return DeadlineExceeded, the
// states a real past-deadline request context is in.
type deadlineCtx struct {
	mu   sync.Mutex
	done chan struct{}
	err  error
}

func newDeadlineCtx() *deadlineCtx { return &deadlineCtx{done: make(chan struct{})} }

func (c *deadlineCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *deadlineCtx) Done() <-chan struct{}       { return c.done }
func (c *deadlineCtx) Value(any) any               { return nil }
func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
func (c *deadlineCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = context.DeadlineExceeded
		close(c.done)
	}
}

// expireAfterFirstRow expires the attached context as soon as the first
// NDJSON row is written: right after the row stream's first merge for a
// result row, right after the fold's first merged shard for a progress row.
type expireAfterFirstRow struct {
	*httptest.ResponseRecorder
	ctx  *deadlineCtx
	rows int
}

func (w *expireAfterFirstRow) Write(b []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(b)
	w.rows += bytes.Count(b, []byte("\n"))
	if w.rows >= 1 {
		w.ctx.expire()
	}
	return n, err
}

// TestSweepDeadlineTerminatesStreamCleanly pins the early-exit bugfix: a
// request whose context dies of DeadlineExceeded between two rows must stop
// streaming right there — no further rows, and no trailing error row (a
// Canceled-only check would fall through to the next cells and exit via the
// error-row path).
func TestSweepDeadlineTerminatesStreamCleanly(t *testing.T) {
	t.Parallel()

	srv, err := newServer(serverConfig{CacheSize: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newDeadlineCtx()
	rec := &expireAfterFirstRow{ResponseRecorder: httptest.NewRecorder(), ctx: ctx}
	body := `{"scenarios": ["known-k"], "ks": [1, 2, 3], "ds": [4], "trials": 2, "seed": 1}`
	req := httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)).WithContext(ctx)

	srv.handleSweep(rec, req) // returns; with the bug it would stream all 3 cells

	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("expired request streamed %d rows, want exactly the pre-expiry row:\n%s",
			len(lines), rec.Body.String())
	}
	var row sweepRow
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Error != "" {
		t.Errorf("deadline expiry leaked an error row: %+v", row)
	}
	if row.K != 1 || row.Stats == nil {
		t.Errorf("pre-expiry row = %+v, want the first cell's result", row)
	}
}

// TestSweepErrorRowNamesFailingCell pins the mid-stream failure contract: a
// cell that fails ends the stream after every cell before it has sent its
// result row, with exactly one error row that carries the failing cell's
// index, whatever the core budget. Cell 3 (k=4) fails; cells 0–2 succeed.
func TestSweepErrorRowNamesFailingCell(t *testing.T) {
	t.Parallel()

	body := `{"scenarios": ["test-failing-k4"], "ks": [1, 2, 3, 4, 5], "ds": [4], "trials": 1, "seed": 1}`
	for _, w := range []int{1, 2, 4} {
		ts := newTestServer(t, serverConfig{CacheSize: 16, Workers: w})
		rows := decodeRows(t, postSweep(t, ts.URL, body))
		if len(rows) != 4 {
			t.Fatalf("Workers=%d: streamed %d rows, want 3 result rows and 1 error row: %+v", w, len(rows), rows)
		}
		for i, row := range rows[:3] {
			if row.Error != "" || row.Stats == nil || row.Index != i || row.K != i+1 {
				t.Errorf("Workers=%d: row %d = %+v, want cell %d's result", w, i, row, i)
			}
		}
		last := rows[3]
		if last.Index != 3 || last.Stats != nil || !strings.Contains(last.Error, "k=4") {
			t.Errorf("Workers=%d: final row = %+v, want an error row for cell 3 (k=4)", w, last)
		}
	}
}

// TestServeRestartServesFromStore is the durability acceptance test at the
// server level: a second server booted on the same store directory answers a
// previously computed sweep entirely from disk — every row cached, stats
// byte-identical, zero misses, zero new simulations.
func TestServeRestartServesFromStore(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	body := `{"scenarios": ["known-k", "uniform"], "ks": [1, 2], "ds": [5],
	          "trials": 6, "seed": 0, "params": {"epsilon": 0.5}}`

	// The first boot fsyncs its appends — the option must be transparent to
	// everything above the store, including the restart warm-start below.
	store1, err := cache.OpenDiskStoreWith(dir, cache.DiskStoreOptions{FsyncAppends: true})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := newServer(serverConfig{CacheSize: 64, Store: store1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())
	first := decodeRows(t, postSweep(t, ts1.URL, body))
	ts1.Close()
	if len(first) != 4 {
		t.Fatalf("first boot returned %d rows, want 4", len(first))
	}
	// Graceful shutdown: compact the cache into the store.
	if err := srv1.cache.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := cache.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := newServer(serverConfig{CacheSize: 64, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.cache.Close() })
	if st := srv2.cache.Stats(); st.Loaded != 4 {
		t.Fatalf("second boot loaded %d entries, want 4: %+v", st.Loaded, st)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer ts2.Close()
	second := decodeRows(t, postSweep(t, ts2.URL, body))
	if len(second) != 4 {
		t.Fatalf("second boot returned %d rows, want 4", len(second))
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("row %d not served from the store after restart", i)
		}
		a, _ := json.Marshal(first[i].Stats)
		b, _ := json.Marshal(second[i].Stats)
		if !bytes.Equal(a, b) {
			t.Errorf("row %d stats changed across the restart:\n%s\nvs\n%s", i, a, b)
		}
	}
	if st := srv2.cache.Stats(); st.Misses != 0 || st.Hits != 4 {
		t.Errorf("second boot ran simulations: %+v, want 0 misses and 4 hits", st)
	}
}

// hugeGridBody is a 17.8 KB body naming 2000 ks and 2000 ds: a grid of
// 4,000,000 cells.
func hugeGridBody() string {
	var vals []string
	for v := 1; v <= 2000; v++ {
		vals = append(vals, strconv.Itoa(v))
	}
	list := strings.Join(vals, ",")
	return `{"scenarios": ["known-k"], "ks": [` + list + `], "ds": [` + list + `], "trials": 1}`
}

// hugeKBody asks for a k whose engine state could never be allocated: run
// for real, it panics a worker goroutine with a makeslice error and takes the
// process down. Only ever send it under a cancelled request context.
const hugeKBody = `{"scenarios":["known-k"],"ks":[4611686018427387904],"ds":[1],"trials":1}`

// TestSweepRejectsHugeK pins the k bound: an explicit k past maxSweepK is
// answered 413 before any cell is built. The request context is cancelled
// up front, so a handler that admitted the grid would answer 200 and abandon
// the sweep without ever reaching the engine.
func TestSweepRejectsHugeK(t *testing.T) {
	t.Parallel()

	srv, err := newServer(serverConfig{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.cache.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		body   string
		status int
	}{
		{hugeKBody, http.StatusRequestEntityTooLarge},
		{`{"scenarios":["known-k"],"ks":[4,65537],"ds":[1],"trials":1}`, http.StatusRequestEntityTooLarge},
		{`{"scenarios":["known-k"],"ks":[65536],"ds":[1],"trials":1}`, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(tc.body)).WithContext(ctx)
		srv.routes().ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d: %s", tc.body, rec.Code, tc.status, rec.Body)
		}
	}
}

// FuzzSweepRequest sends arbitrary bytes as a /sweep body to one small
// server. The request context is cancelled before the handler runs, so
// decoding, the body cap, the cell count, the k bound and grid expansion run
// in full while no cell computes. The handler must answer 200, 400 or 413 —
// never panic, never 5xx — and may answer 200 only for a body that is one
// request, followed by nothing but whitespace, that decodes to at most
// MaxCells cells with every k within maxSweepK.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		// The CI smoke bodies.
		`{"scenarios": ["known-k", "uniform"], "ks": [1, 4], "ds": [8], "trials": 8, "seed": 1, "params": {"epsilon": 0.5}}`,
		`{"scenarios": ["known-k"], "ks": [4], "ds": [8], "trials": 8, "seed": 1, "params": {"crash_prob": 0.5, "crash_by": 8}}`,
		`{"scenarios": ["known-k"], "ks": [4], "ds": [64], "trials": 524288, "seed": 7}`,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [128], "trials": 50000000, "seed": 9}`,
		// The TestSweepErrors bodies.
		`{`,
		`{"bogus": 1}`,
		`{"scenarios": ["nope"], "ks": [1], "ds": [4], "trials": 1}`,
		`{"scenarios": ["known-k"], "ks": [0], "ds": [4], "trials": 1}`,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [-4], "trials": 1}`,
		`{"scenarios": ["known-d"], "ks": [1], "ds": [4, 8], "trials": 1, "params": {"d": 4}}`,
		`{"scenarios": ["known-k"], "ks": [1, 2], "ds": [4, 8], "trials": 1}`,
		// A grid of 4,000,000 cells, and a k no engine could hold.
		hugeGridBody(),
		hugeKBody,
		// Data after the request.
		`{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 1} {"trials": 999999}`,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 1}garbage`,
	} {
		f.Add([]byte(body))
	}
	const maxCells = 64
	srv, err := newServer(serverConfig{CacheSize: 16, MaxCells: maxCells})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.cache.Close() })
	handler := srv.routes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)).WithContext(ctx)
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var sr sweepRequest
		if err := dec.Decode(&sr); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("200 for a body with data after the request (%v): %q", err, body)
		}
		if size, err := sr.Size(); err != nil || size > maxCells {
			t.Fatalf("200 for a grid of %d cells (%v), more than %d: %q", size, err, maxCells, body)
		}
		for _, k := range sr.Ks {
			if k > maxSweepK {
				t.Fatalf("200 for k=%d past the bound %d: %q", k, maxSweepK, body)
			}
		}
	})
}

func TestRunFlagValidation(t *testing.T) {
	t.Parallel()

	cases := [][]string{
		{"-cache-size", "0"},
		{"-workers", "-1"},
		{"-max-cells", "0"},
		{"-snapshot-interval", "-1s"},
		{"-snapshot-interval", "30s"}, // explicit interval without -store-dir
		{"-fsync-appends"},            // durability knob without -store-dir
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var logw bytes.Buffer
		if err := run(args, &logw); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}

	// An explicit interval with only -checkpoint-dir passes validation: the
	// beat compacts the checkpoint tier too. The unusable address then
	// fails the boot at listen time, after the flags were accepted. That
	// return must release everything the boot opened: both store
	// directories reopen, and the -debug-addr port binds again.
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	var logw bytes.Buffer
	err := run([]string{"-store-dir", storeDir, "-checkpoint-dir", ckptDir, "-snapshot-interval", "1m",
		"-debug-addr", "127.0.0.1:0", "-addr", "127.0.0.1:-1"}, &logw)
	if err == nil || strings.Contains(err.Error(), "-snapshot-interval") || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("-checkpoint-dir with -snapshot-interval: got error %v, want the listen error", err)
	}
	store, err := cache.OpenDiskStore(storeDir)
	if err != nil {
		t.Errorf("reopening -store-dir after the listen error: %v", err)
	} else if err := store.Close(); err != nil {
		t.Error(err)
	}
	ckpts, err := cache.OpenCheckpointStore(ckptDir)
	if err != nil {
		t.Errorf("reopening -checkpoint-dir after the listen error: %v", err)
	} else if err := ckpts.Close(); err != nil {
		t.Error(err)
	}
	_, rest, ok := strings.Cut(logw.String(), "pprof on http://")
	debugAddr, _, _ := strings.Cut(rest, "/")
	if !ok || debugAddr == "" {
		t.Fatalf("boot log names no pprof address:\n%s", logw.String())
	}
	ln, err := net.Listen("tcp", debugAddr)
	if err != nil {
		t.Errorf("rebinding -debug-addr %s after the listen error: %v", debugAddr, err)
	} else {
		ln.Close()
	}
}

// TestSweepShedsPastInflightCap pins the load-shedding satellite: with the
// cap reached, a /sweep is rejected with 503 + Retry-After before any work
// runs, the shed is counted, and totalSweeps stays untouched. The in-flight
// state is injected directly — the counter is the admission token, so bumping
// it is exactly what a slow concurrent sweep would do.
func TestSweepShedsPastInflightCap(t *testing.T) {
	t.Parallel()

	srv, err := newServer(serverConfig{CacheSize: 16, MaxInflightSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	body := `{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 1}`

	srv.activeSweeps.Add(1) // one sweep already in flight
	resp := postSweep(t, ts.URL, body)
	var errBody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status at capacity = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 response carries no Retry-After header")
	}
	if errBody["error"] == "" {
		t.Errorf("503 response carries no JSON error payload: %v", errBody)
	}
	if got := srv.shedSweeps.Load(); got != 1 {
		t.Errorf("shedSweeps = %d after one shed, want 1", got)
	}
	if got := srv.totalSweeps.Load(); got != 0 {
		t.Errorf("a shed request inflated totalSweeps to %d", got)
	}
	if got := srv.activeSweeps.Load(); got != 1 {
		t.Errorf("activeSweeps = %d after a shed, want the injected 1", got)
	}

	// Capacity freed: the identical request now runs to completion, and the
	// shed counter shows up in /stats.
	srv.activeSweeps.Add(-1)
	rows := decodeRows(t, postSweep(t, ts.URL, body))
	if len(rows) != 1 || rows[0].Error != "" || rows[0].Stats == nil {
		t.Fatalf("post-shed sweep rows = %+v", rows)
	}
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ShedSweeps != 1 || st.TotalSweeps != 1 {
		t.Errorf("/stats shed=%d total=%d, want 1/1", st.ShedSweeps, st.TotalSweeps)
	}
}

// TestSweepUnlimitedInflightByDefault pins the default: without a cap, the
// admission check never sheds however high the in-flight count.
func TestSweepUnlimitedInflightByDefault(t *testing.T) {
	t.Parallel()

	srv, err := newServer(serverConfig{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	srv.activeSweeps.Add(1 << 20)
	rows := decodeRows(t, postSweep(t, ts.URL,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 1}`))
	if len(rows) != 1 || rows[0].Error != "" {
		t.Fatalf("uncapped server shed a sweep: %+v", rows)
	}
	if got := srv.shedSweeps.Load(); got != 0 {
		t.Errorf("uncapped server counted %d sheds", got)
	}
}

// failingStore errors on every append: the minimal stand-in for a full disk
// or a yanked volume beneath the durable store.
type failingStore struct{}

func (failingStore) Load(func(cache.Entry)) error { return nil }
func (failingStore) Append(cache.Entry) error     { return errors.New("disk full") }
func (failingStore) Snapshot([]cache.Entry) error { return errors.New("disk full") }
func (failingStore) Close() error                 { return nil }

// TestHealthzReportsStoreDegradation pins the healthz satellite: the probe
// answers {"status":"ok"} while the store works and flips the body to
// {"status":"degraded"} with a store_errors count once an append has failed —
// still HTTP 200, because a memory-only replica is alive.
func TestHealthzReportsStoreDegradation(t *testing.T) {
	t.Parallel()

	srv, err := newServer(serverConfig{CacheSize: 16, Store: failingStore{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	get := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthy probe = %d %v", code, body)
	}

	// A computed sweep write-behinds into the failing store synchronously;
	// the probe must flip on the next scrape.
	decodeRows(t, postSweep(t, ts.URL,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 1}`))
	code, body := get()
	if code != http.StatusOK {
		t.Fatalf("degraded probe status = %d, want 200 (the replica is alive)", code)
	}
	if body["status"] != "degraded" {
		t.Errorf("degraded probe body = %v", body)
	}
	if n, ok := body["store_errors"].(float64); !ok || n < 1 {
		t.Errorf("degraded probe carries no store_errors count: %v", body)
	}
}

// TestSweepFaultParams drives the fault knobs through the HTTP surface: a
// faulty request runs, reports survivor statistics below full strength, keys
// the cache separately from the fault-free twin, and invalid knobs fail with
// a 400 before any work.
func TestSweepFaultParams(t *testing.T) {
	t.Parallel()

	ts := newTestServer(t, serverConfig{CacheSize: 64})
	faultFree := `{"scenarios": ["known-k"], "ks": [4], "ds": [8], "trials": 16, "seed": 3}`
	faulty := `{"scenarios": ["known-k"], "ks": [4], "ds": [8], "trials": 16, "seed": 3,
	            "params": {"crash_prob": 0.5, "crash_by": 64}}`

	plain := decodeRows(t, postSweep(t, ts.URL, faultFree))
	crashed := decodeRows(t, postSweep(t, ts.URL, faulty))
	if len(plain) != 1 || len(crashed) != 1 {
		t.Fatalf("row counts %d and %d, want 1 and 1", len(plain), len(crashed))
	}
	if plain[0].Stats.MeanSurvivors() != 4 {
		t.Errorf("fault-free sweep reports %v mean survivors, want 4", plain[0].Stats.MeanSurvivors())
	}
	if got := crashed[0].Stats.MeanSurvivors(); got >= 4 || got <= 0 {
		t.Errorf("crashing half the agents left %v mean survivors, want strictly between 0 and 4", got)
	}
	// Same coordinates, different fault plan: the cache must not conflate
	// them (the plan is part of the key).
	if crashed[0].Cached {
		t.Error("faulty sweep served the fault-free twin from the cache — the key ignores the plan")
	}

	// The faulty variant scenarios work over HTTP with no knobs at all.
	variant := decodeRows(t, postSweep(t, ts.URL,
		`{"scenarios": ["known-k-faulty"], "ks": [4], "ds": [8], "trials": 16, "seed": 3}`))
	if len(variant) != 1 || variant[0].Error != "" {
		t.Fatalf("faulty variant rows = %+v", variant)
	}

	// Invalid plans fail the request up front.
	resp := postSweep(t, ts.URL,
		`{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 1,
		  "params": {"crash_prob": 0.5}}`) // crash_by missing
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("crash_prob without crash_by: status %d, want 400", resp.StatusCode)
	}
}

// rawSweepLines splits a /sweep NDJSON response into progress rows and
// result rows via the "type" discriminator.
func rawSweepLines(t *testing.T, resp *http.Response) (progress []progressRow, results []sweepRow) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Type == "progress" {
			var p progressRow
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			progress = append(progress, p)
			continue
		}
		var row sweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		results = append(results, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return progress, results
}

// TestSweepProgressRows pins the opt-in progress streaming: heartbeat rows
// interleave with per-shard accounting that advances monotonically per cell,
// the result rows are unchanged, and a request that did not opt in sees no
// progress rows at all.
func TestSweepProgressRows(t *testing.T) {
	t.Parallel()

	ts := newTestServer(t, serverConfig{CacheSize: 16})
	plainBody := `{"scenarios": ["known-k"], "ks": [2], "ds": [8], "trials": 16384, "seed": 5}`
	ref := decodeRows(t, postSweep(t, ts.URL, plainBody))
	if len(ref) != 1 || ref[0].Stats == nil {
		t.Fatalf("reference rows = %+v", ref)
	}

	// Fresh server so the progress request actually computes (a cache hit
	// fires no progress).
	ts2 := newTestServer(t, serverConfig{CacheSize: 16})
	body := `{"scenarios": ["known-k"], "ks": [2], "ds": [8], "trials": 16384, "seed": 5,
	          "progress": true, "progress_every": 1}`
	progress, results := rawSweepLines(t, postSweep(t, ts2.URL, body))
	if len(results) != 1 || results[0].Error != "" {
		t.Fatalf("result rows = %+v", results)
	}
	if len(progress) == 0 {
		t.Fatal("no progress rows despite progress: true")
	}
	prev := 0
	for _, p := range progress {
		if p.Index != 0 || p.Scenario != "known-k" || p.K != 2 || p.D != 8 {
			t.Fatalf("progress row carries wrong coordinates: %+v", p)
		}
		if p.ShardsDone <= prev || p.ShardsDone > p.TotalShards || p.TrialsDone > p.Trials {
			t.Fatalf("progress accounting broken: %+v after shard %d", p, prev)
		}
		prev = p.ShardsDone
	}
	last := progress[len(progress)-1]
	if last.ShardsDone != last.TotalShards || last.TrialsDone != 16384 {
		t.Fatalf("final progress row incomplete: %+v", last)
	}
	// The hook must not perturb the aggregate.
	a, _ := json.Marshal(ref[0].Stats)
	b, _ := json.Marshal(results[0].Stats)
	if !bytes.Equal(a, b) {
		t.Error("progress streaming changed the result stats")
	}

	// Opt-out: the same request without the flag emits result rows only.
	ts3 := newTestServer(t, serverConfig{CacheSize: 16})
	progress, results = rawSweepLines(t, postSweep(t, ts3.URL, plainBody))
	if len(progress) != 0 || len(results) != 1 {
		t.Fatalf("opt-out stream: %d progress rows, %d results", len(progress), len(results))
	}
}

// TestSweepCheckpointResumeAcrossRestart is the serving-layer resume test: a
// server with a checkpoint tier starts a mega-cell and is interrupted right
// after its first persisted prefix; a second server booted on the same
// checkpoint directory — with a cold result cache — recomputes the cell by
// resuming from that prefix, bit-identically to an uninterrupted run, and
// counts the resume in /stats. Completing the cell drops its checkpoints at
// once, and the next snapshot beat compacts them off disk.
func TestSweepCheckpointResumeAcrossRestart(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	body := `{"scenarios": ["known-k"], "ks": [2], "ds": [16], "trials": 16384, "seed": 11}`
	ref := decodeRows(t, postSweep(t, newTestServer(t, serverConfig{CacheSize: 16}).URL, body))
	if len(ref) != 1 || ref[0].Stats == nil {
		t.Fatalf("reference rows = %+v", ref)
	}

	ckpts1, err := cache.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := newServer(serverConfig{CacheSize: 16, Checkpoints: ckpts1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With a progress row per shard, the first row is written by the fold
	// just before it saves its first checkpoint; expiring the request there
	// interrupts the sweep with that checkpoint persisted.
	ctx := newDeadlineCtx()
	rec := &expireAfterFirstRow{ResponseRecorder: httptest.NewRecorder(), ctx: ctx}
	progressBody := strings.Replace(body, "}", `, "progress": true, "progress_every": 1}`, 1)
	srv1.handleSweep(rec, httptest.NewRequest(http.MethodPost, "/sweep",
		strings.NewReader(progressBody)).WithContext(ctx))
	if got := srv1.abandonedSweeps.Load(); got != 1 {
		t.Fatalf("first boot was not interrupted: abandoned %d, stream:\n%s", got, rec.Body.String())
	}
	if st := ckpts1.Stats(); st.Saved == 0 || st.Cells != 1 {
		t.Fatalf("interrupted first boot left no resumable cell: %+v", st)
	}
	if err := ckpts1.Close(); err != nil {
		t.Fatal(err)
	}

	ckpts2, err := cache.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ckpts2.Close() })
	srv2, err := newServer(serverConfig{CacheSize: 16, Checkpoints: ckpts2, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer ts2.Close()
	second := decodeRows(t, postSweep(t, ts2.URL, body))
	if len(second) != 1 || second[0].Cached {
		t.Fatalf("second boot rows = %+v (the result cache is cold; only checkpoints carry over)", second)
	}
	a, _ := json.Marshal(ref[0].Stats)
	b, _ := json.Marshal(second[0].Stats)
	if !bytes.Equal(a, b) {
		t.Errorf("resumed sweep differs from the original:\n%s\nvs\n%s", a, b)
	}

	statsResp, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Checkpoints == nil {
		t.Fatal("/stats carries no checkpoints section despite the configured tier")
	}
	if st.Checkpoints.ResumedRuns == 0 || st.Checkpoints.ResumedShards == 0 {
		t.Errorf("second boot resumed nothing: %+v", st.Checkpoints)
	}
	// The cell completed, so its checkpoints left memory without any prune
	// call; the log still holds them until the next beat compacts it.
	if st.Checkpoints.Cells != 0 || st.Checkpoints.Pruned == 0 {
		t.Errorf("completed cell kept its checkpoints: %+v", st.Checkpoints)
	}
	logPath := filepath.Join(dir, "checkpoints.ndjson")
	if info, err := os.Stat(logPath); err != nil || info.Size() == 0 {
		t.Fatalf("checkpoint log before the beat: %v, %v", info, err)
	}
	srv2.beat(io.Discard)
	if info, err := os.Stat(logPath); err != nil || info.Size() != 0 {
		t.Errorf("beat did not compact the checkpoint log: %v, %v", info, err)
	}
}

// TestSweepCountsAbandonedClients pins the disconnect satellite: a stream
// whose context dies after a flushed row stops computing and is counted as
// abandoned in /stats.
func TestSweepCountsAbandonedClients(t *testing.T) {
	t.Parallel()

	srv, err := newServer(serverConfig{CacheSize: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newDeadlineCtx()
	rec := &expireAfterFirstRow{ResponseRecorder: httptest.NewRecorder(), ctx: ctx}
	body := `{"scenarios": ["known-k"], "ks": [1, 2, 3], "ds": [4], "trials": 2, "seed": 1}`
	req := httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)).WithContext(ctx)
	srv.handleSweep(rec, req)
	if got := srv.abandonedSweeps.Load(); got != 1 {
		t.Errorf("abandonedSweeps = %d after a mid-stream disconnect, want 1", got)
	}
	// A sweep read to completion is not an abandonment.
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	decodeRows(t, postSweep(t, ts.URL, `{"scenarios": ["known-k"], "ks": [1], "ds": [4], "trials": 2, "seed": 9}`))
	if got := srv.abandonedSweeps.Load(); got != 1 {
		t.Errorf("abandonedSweeps = %d after a completed sweep, want still 1", got)
	}
}
