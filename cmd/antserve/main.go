// Command antserve puts the search harness behind a long-running HTTP
// service: the scenario registry, the streaming sweep engine and a
// content-addressed result cache with singleflight request deduplication, so
// N simultaneous identical sweeps cost one simulation.
//
// Usage:
//
//	antserve [-addr :8077] [-cache-size 4096]
//	         [-workers 0] [-max-cells 10000] [-max-inflight-sweeps 0]
//	         [-store-dir ""] [-fsync-appends] [-snapshot-interval 5m]
//	         [-checkpoint-dir ""] [-checkpoint-every 0]
//	         [-debug-addr ""]
//
// Every /sweep request splits a budget of -workers cores (0 = GOMAXPROCS)
// with scenario.AutoSplit and streams its cells in order, each row as soon as
// its cell and every cell before it are done: a grid whose every cell gives
// each core a shard of at least sim.MinShardTrials trials runs one cell at a
// time on all cores; any other grid gets the cores as cells in flight first,
// and the remainder as trial-level fan-out. Results are bit-identical
// whatever the budget.
// -debug-addr exposes net/http/pprof on a separate listener for live
// profiling (disabled when empty).
//
// -store-dir makes the result cache durable: every computed cell is
// appended to an NDJSON log under the directory, the cache is compacted
// into a snapshot every -snapshot-interval (0 disables the timer) and on
// graceful shutdown, and the next boot warm-starts from it — a redeploy
// serves previously computed sweeps with "cached": true without re-running
// a single trial. Safe because results are a pure function of the cell
// configuration and seed; entries written under an older schema version are
// skipped, never misread. By default an acknowledged append has merely left
// the process (surviving a crash of antserve itself); -fsync-appends flushes
// the log to disk per appended cell so entries also survive an OS crash or
// power loss. /stats reports loaded/persisted/store_errors counters
// alongside the cache hit/miss ones.
//
// -checkpoint-dir adds the mid-cell checkpoint tier: while a mega-cell's
// ordered fold runs, its running prefix aggregate is persisted every
// -checkpoint-every shards (0 = engine default), so a killed or crashed
// process resumes the cell from the longest valid prefix on the next
// identical request — with final aggregates bit-identical to an
// uninterrupted run. The directory may equal -store-dir (the tiers lock
// separately); a cell's checkpoints leave memory as soon as its computed
// result lands in the cache, and the checkpoint log is compacted on the next
// -snapshot-interval beat and at shutdown.
// Persistent checkpoint write failures degrade the cell to progress-only
// (counted in /stats under checkpoints.store_errors), never fail the sweep.
//
// -max-cells caps a /sweep grid. The server counts a grid's cells before it
// builds any, and it reads at most 64 KiB plus 64 bytes per allowed cell of
// a request body; either limit exceeded answers 413, and so does any
// explicit k above 65,536.
//
// -max-inflight-sweeps is the admission-control valve: with a positive
// value, at most that many /sweep requests compute concurrently and the
// excess is shed immediately with 503 + a Retry-After header instead of
// queueing unboundedly behind the worker pool. Shed requests are counted in
// /stats as shed_sweeps. A client that disconnects mid-stream is detected
// after each flushed row, aborts its remaining shards promptly and is
// counted as abandoned_sweeps.
//
// Endpoints:
//
//	GET  /scenarios  the registry: names, descriptions, default grids (JSON)
//	POST /sweep      a sweep grid (JSON body); results stream back as NDJSON,
//	                 one cell-row at a time, in cell order — responses are
//	                 constant-memory like the engine beneath them
//	GET  /healthz    liveness probe; reports {"status":"degraded"} with a
//	                 store_errors count once the durable store has failed and
//	                 the cache fell back to memory-only serving (still HTTP
//	                 200: the replica is alive, just half-broken)
//	GET  /stats      cache, in-flight, shed and store counters (JSON)
//
// A /sweep body is scenario.Grid's JSON form:
//
//	{"scenarios": ["known-k", "uniform"], "ks": [1, 4, 16], "ds": [32],
//	 "trials": 64, "seed": 1, "params": {"epsilon": 0.5}}
//
// Setting "progress": true in the body interleaves
// {"type":"progress","index":...,"shards_done":...,"trials_done":...,...}
// heartbeat rows into the stream as each computed cell's fold advances
// ("progress_every" sets the shard stride; 0 or a negative value picks an
// automatic ~1% stride).
// Progress rows are flushed immediately, so they double as keep-alives for
// proxies that would time out an idle mega-cell response. Result rows carry
// no "type" field, so clients that did not opt in are unaffected.
//
// The params object also accepts the fault-model knobs (crash_prob,
// crash_by, stall_prob, stall_by, stall_dur — see DESIGN.md §10), which
// subject every cell's agents to fail-stop/fail-stall faults; the registered
// -faulty scenario variants carry a default plan without any knobs.
//
// Each response line carries the cell coordinates, a "cached" flag and the
// full TrialStats aggregate (lossless JSON, including quantile summaries).
// A cell that fails mid-stream ends the response: every cell before it has
// sent its result row, and a final NDJSON object carries the failing cell's
// "index" and an "error" field. Cancellation flows down: when a client
// disconnects, the request context aborts the cells in flight (the ordered
// reduce that streams the rows, parallel.ReduceOrdered) and each cell's trial
// fan-out (parallel.ReduceOrdered inside sim.MonteCarlo).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -debug-addr listener
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"antsearch/internal/cache"
	"antsearch/internal/parallel"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "antserve:", err)
		os.Exit(1)
	}
}

func run(args []string, logw io.Writer) (err error) {
	fs := flag.NewFlagSet("antserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8077", "listen address")
		cacheSize    = fs.Int("cache-size", cache.DefaultCapacity, "maximum cached cell results")
		workers      = fs.Int("workers", 0, fmt.Sprintf("cores per /sweep request: one cell at a time on all of them if every cell has %d trials per core, else cells first (0 = GOMAXPROCS)", sim.MinShardTrials))
		maxCells     = fs.Int("max-cells", 10000, "largest grid a single /sweep may expand to")
		maxInflight  = fs.Int("max-inflight-sweeps", 0, "maximum /sweep requests computing concurrently; excess is shed with 503 (0 = unlimited)")
		storeDir     = fs.String("store-dir", "", "directory for the durable result store (empty = memory-only cache)")
		fsyncAppends = fs.Bool("fsync-appends", false, "fsync the store log after every appended cell, surviving OS crashes and power loss (needs -store-dir)")
		snapInterval = fs.Duration("snapshot-interval", 5*time.Minute, "how often to compact the result store and the checkpoint tier (0 = only on shutdown; needs -store-dir or -checkpoint-dir)")
		ckptDir      = fs.String("checkpoint-dir", "", "directory for mid-cell checkpoints, making mega-cells crash-resumable (empty = disabled; may equal -store-dir)")
		ckptEvery    = fs.Int("checkpoint-every", 0, "shards between persisted checkpoints (0 = engine default; needs -checkpoint-dir)")
		debugAddr    = fs.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheSize < 1 {
		return fmt.Errorf("-cache-size must be at least 1, got %d", *cacheSize)
	}
	if *snapInterval < 0 {
		return fmt.Errorf("-snapshot-interval must be >= 0 (0 = only on shutdown), got %v", *snapInterval)
	}
	if *snapInterval > 0 && *storeDir == "" && *ckptDir == "" && snapIntervalSet(fs) {
		return fmt.Errorf("-snapshot-interval needs -store-dir or -checkpoint-dir")
	}
	if *fsyncAppends && *storeDir == "" {
		return fmt.Errorf("-fsync-appends needs -store-dir")
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *maxCells < 1 {
		return fmt.Errorf("-max-cells must be at least 1, got %d", *maxCells)
	}
	if *maxInflight < 0 {
		return fmt.Errorf("-max-inflight-sweeps must be >= 0 (0 = unlimited), got %d", *maxInflight)
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 (0 = engine default), got %d", *ckptEvery)
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint-dir")
	}

	// Every return from here on releases what run opened: the -debug-addr
	// listener, the result store and the checkpoint tier. A graceful
	// shutdown closes both stores itself, after its final compaction and
	// prune, and a second Close of either store is a no-op.
	var debugLn net.Listener
	var diskStore *cache.DiskStore
	cfg := serverConfig{
		Workers:           *workers,
		CacheSize:         *cacheSize,
		MaxCells:          *maxCells,
		MaxInflightSweeps: *maxInflight,
	}
	defer func() {
		if debugLn != nil {
			debugLn.Close() // ends the pprof server's Serve loop
		}
		if diskStore != nil {
			if cerr := diskStore.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
		if cfg.Checkpoints != nil {
			if cerr := cfg.Checkpoints.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
	}()

	if *debugAddr != "" {
		// The profiling endpoints live on their own listener so they can stay
		// unexposed (bound to localhost) while -addr serves traffic. Listen
		// synchronously so a bad address fails at startup, not on first use.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		debugLn = ln
		fmt.Fprintf(logw, "antserve: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			_ = http.Serve(ln, nil)
		}()
	}

	if *storeDir != "" {
		store, err := cache.OpenDiskStoreWith(*storeDir, cache.DiskStoreOptions{FsyncAppends: *fsyncAppends})
		if err != nil {
			return fmt.Errorf("-store-dir: %w", err)
		}
		diskStore = store
		cfg.Store = store
	}
	if *ckptDir != "" {
		ckpts, err := cache.OpenCheckpointStore(*ckptDir)
		if err != nil {
			return fmt.Errorf("-checkpoint-dir: %w", err)
		}
		cfg.Checkpoints = ckpts
		cfg.CheckpointEvery = *ckptEvery
	}
	srv, err := newServer(cfg)
	if err != nil {
		return fmt.Errorf("warm-starting the cache: %w", err)
	}
	if diskStore != nil {
		fmt.Fprintf(logw, "antserve: durable store at %s (%d entries loaded)\n",
			*storeDir, srv.cache.Stats().Loaded)
		if skipped := diskStore.Skipped(); skipped > 0 {
			// A quietly shrinking store must be loud: every skipped record is
			// either corruption or a schema change, and both mean recomputation.
			fmt.Fprintf(logw, "antserve: store skipped %d unreadable or foreign-schema records\n", skipped)
		}
	}
	if cfg.Checkpoints != nil {
		fmt.Fprintf(logw, "antserve: checkpoints at %s (%d cells resumable)\n",
			*ckptDir, cfg.Checkpoints.Stats().Cells)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections and
	// give in-flight sweeps a grace period to stream out; past it, close the
	// server, which cancels every request context and thereby aborts the row
	// stream's cells in flight and their trial fan-out (both
	// parallel.ReduceOrdered, the latter inside sim.MonteCarlo).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if (cfg.Store != nil || cfg.Checkpoints != nil) && *snapInterval > 0 {
		// Periodic compaction bounds how much of the store lives in the
		// append log (replayed line-by-line on boot) versus the snapshot,
		// and bounds data loss on a crash-without-shutdown to one interval
		// of evictions (appended entries are already on disk).
		go func() {
			t := time.NewTicker(*snapInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					srv.beat(logw)
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(logw, "antserve: listening on %s (cache %d entries)\n", *addr, *cacheSize)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(logw, "antserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	if err != nil {
		err = httpSrv.Close()
	}
	// Final compaction: the store must hold exactly the cache state the
	// process shuts down with, so the next boot warm-starts it all.
	if cerr := srv.cache.Close(); cerr != nil {
		fmt.Fprintf(logw, "antserve: closing store: %v\n", cerr)
		if err == nil {
			err = cerr
		}
	}
	if cfg.Checkpoints != nil {
		// Prune before closing: checkpoints for cells whose aggregate just
		// got snapshotted above would otherwise survive into the next boot
		// only to be garbage on arrival.
		cfg.Checkpoints.Prune(srv.cache.Contains)
		if cerr := cfg.Checkpoints.Close(); cerr != nil {
			fmt.Fprintf(logw, "antserve: closing checkpoint store: %v\n", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	return err
}

// beat is one tick of the -snapshot-interval timer: it compacts the result
// store, then the checkpoint tier. The checkpoint compaction garbage-collects
// the prefixes of cells whose final aggregate is cached, and rewrites the
// log whenever finished cells left the index since the last compaction.
func (s *server) beat(logw io.Writer) {
	if s.cfg.Store != nil {
		if err := s.cache.Snapshot(); err != nil {
			fmt.Fprintf(logw, "antserve: snapshot failed: %v\n", err)
		}
	}
	if s.cfg.Checkpoints != nil {
		s.cfg.Checkpoints.Prune(s.cache.Contains)
	}
}

// snapIntervalSet reports whether -snapshot-interval was given explicitly on
// the command line (as opposed to carrying its default), so a value without
// either store directory can be rejected as a misconfiguration while the
// default stays harmless.
func snapIntervalSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "snapshot-interval" {
			set = true
		}
	})
	return set
}

// serverConfig carries the tunables of a server instance.
type serverConfig struct {
	Workers           int                    // cores per request, split between cells and trials by scenario.AutoSplit (0 = GOMAXPROCS)
	CacheSize         int                    // LRU bound of the result cache
	MaxCells          int                    // largest grid a single request may expand to
	MaxInflightSweeps int                    // concurrent /sweep cap; excess shed with 503 (0 = unlimited)
	Store             cache.Store            // durable backing for the result cache (nil = memory-only)
	Checkpoints       *cache.CheckpointStore // mid-cell checkpoint tier (nil = disabled)
	CheckpointEvery   int                    // shards between checkpoints (0 = engine default)
}

// server wires the registry, the sweep runner and the result cache behind
// the HTTP handlers.
type server struct {
	cfg   serverConfig
	cache *cache.Cache
	start time.Time

	activeSweeps    atomic.Int64
	totalSweeps     atomic.Int64
	shedSweeps      atomic.Int64
	abandonedSweeps atomic.Int64
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.MaxCells < 1 {
		cfg.MaxCells = 10000
	}
	c, err := cache.NewWithStore(cfg.CacheSize, cfg.Store)
	if err != nil {
		return nil, err
	}
	return &server{
		cfg:   cfg,
		cache: c,
		start: time.Now(),
	}, nil
}

// routes builds the HTTP mux.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleHealthz is the liveness probe. It always answers 200 — a replica
// serving from memory is alive — but the body distinguishes a fully healthy
// instance from one whose durable store has failed: once any append or
// snapshot errored the cache runs memory-only, and orchestration (or a
// human) should know results stopped surviving restarts.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if st := s.cache.Stats(); st.StoreErrors > 0 {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":       "degraded",
			"store_errors": st.StoreErrors,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// scenarioInfo is one /scenarios listing entry.
type scenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Uniform     bool   `json:"uniform"`
	Ks          []int  `json:"ks"`
	Ds          []int  `json:"ds"`
	Trials      int    `json:"trials"`
}

func (s *server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	all := scenario.All()
	infos := make([]scenarioInfo, 0, len(all))
	for _, scn := range all {
		infos = append(infos, scenarioInfo{
			Name:        scn.Name,
			Description: scn.Description,
			Uniform:     scn.Uniform,
			Ks:          scn.Ks,
			Ds:          scn.Ds,
			Trials:      scn.Trials,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// statsResponse is the /stats payload.
type statsResponse struct {
	Cache cache.Stats `json:"cache"`
	// Checkpoints reports the mid-cell checkpoint tier's counters; absent
	// when the server runs without -checkpoint-dir.
	Checkpoints     *cache.CheckpointStats `json:"checkpoints,omitempty"`
	ActiveSweeps    int64                  `json:"active_sweeps"`
	TotalSweeps     int64                  `json:"total_sweeps"`
	ShedSweeps      int64                  `json:"shed_sweeps"`
	AbandonedSweeps int64                  `json:"abandoned_sweeps"`
	UptimeSeconds   float64                `json:"uptime_seconds"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Cache:           s.cache.Stats(),
		ActiveSweeps:    s.activeSweeps.Load(),
		TotalSweeps:     s.totalSweeps.Load(),
		ShedSweeps:      s.shedSweeps.Load(),
		AbandonedSweeps: s.abandonedSweeps.Load(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
	}
	if s.cfg.Checkpoints != nil {
		st := s.cfg.Checkpoints.Stats()
		resp.Checkpoints = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepRequest is a /sweep body: the grid, whose fields scenario.Grid's JSON
// tags name, plus the opt-in progress streaming knobs.
type sweepRequest struct {
	scenario.Grid
	// Progress interleaves {"type":"progress",...} heartbeat rows into the
	// NDJSON stream as each cell's fold advances, flushed immediately — they
	// double as keep-alives for proxies that time out idle mega-cell
	// responses. Progress rows fire only for cells this request actually
	// computes: cache hits and joined singleflights produce none.
	Progress bool `json:"progress"`
	// ProgressEvery is the shard stride between progress rows (0 or
	// negative = an automatic ~1% stride; sim counts shards of at most 1024
	// trials).
	ProgressEvery int `json:"progress_every"`
}

// sweepRow is one NDJSON response line: the cell coordinates, whether the
// result came from the cache, and the full aggregate. A row with a non-empty
// Error field terminates the stream; its Index is the failing cell's.
// The coordinate fields deliberately have no omitempty: a legitimate zero
// value (seed 0 above all, but any zero-valued coordinate) must appear
// explicitly in every row, or clients that re-key results by coordinates see
// ambiguous rows. Only Stats and Error — which genuinely distinguish result
// rows from the terminating error row — are elided when absent.
//
//antlint:wire
type sweepRow struct {
	Index    int             `json:"index"`
	Scenario string          `json:"scenario"`
	K        int             `json:"k"`
	D        int             `json:"d"`
	Trials   int             `json:"trials"`
	Seed     uint64          `json:"seed"`
	Cached   bool            `json:"cached"`
	Stats    *sim.TrialStats `json:"stats,omitempty"`
	Error    string          `json:"error,omitempty"` //antlint:allow wiretag an absent error field is the row-is-a-result signal
}

// progressRow is one opt-in intra-cell heartbeat line of a /sweep response:
// how far the cell at Index has folded, how much of that was restored from a
// checkpoint, and a light running summary. The "type" discriminator is what
// keeps it distinguishable from result rows (which carry no type field), so
// a client that did not opt in never has to care.
//
//antlint:wire
type progressRow struct {
	Type          string  `json:"type"`
	Index         int     `json:"index"`
	Scenario      string  `json:"scenario"`
	K             int     `json:"k"`
	D             int     `json:"d"`
	ShardsDone    int     `json:"shards_done"`
	TotalShards   int     `json:"total_shards"`
	TrialsDone    int     `json:"trials_done"`
	Trials        int     `json:"trials"`
	ResumedShards int     `json:"resumed_shards"`
	Found         int     `json:"found"`
	MeanTime      float64 `json:"mean_time"`
}

// streamWriter serializes all NDJSON writes of one /sweep response: result
// rows from the handler goroutine and progress rows fired from inside the
// cell fan-out may interleave, and each heartbeat must flush immediately to
// act as a keep-alive.
type streamWriter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
	failed  bool
}

// write encodes one row and flushes it. It reports false once any write has
// failed (the client went away); later writes are dropped silently.
func (sw *streamWriter) write(row any) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.failed {
		return false
	}
	if err := sw.enc.Encode(row); err != nil {
		sw.failed = true
		return false
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return true
}

// maxSweepK is the largest explicit k a /sweep request may ask for. The
// engine holds about 600 bytes of state per agent for every cell in flight,
// so an unbounded k lets one small request demand any amount of memory (or
// panic a worker goroutine outright). 65,536 agents is 64 times the largest
// k any experiment sweeps, about 40 MB of engine state per cell in flight.
const maxSweepK = 1 << 16

// maxSweepBody bounds a /sweep body for a server that accepts grids of at
// most maxCells cells. Such a grid lists at most maxCells scenarios, ks or
// ds, so 64 bytes per cell (a number or a scenario name, with generous
// whitespace) plus 64 KiB for the rest of the request admits every
// acceptable body and cuts off padding long before it costs memory.
func maxSweepBody(maxCells int) int64 {
	return 64<<10 + 64*int64(maxCells)
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSweepBody(s.cfg.MaxCells))
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req sweepRequest
	err := dec.Decode(&req)
	if err == nil {
		// The body is one request: only whitespace may follow it.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "invalid sweep request: %v", err)
		return
	}
	grid := req.Grid
	// Count before expanding: a small body can name millions of cells, and
	// building them only to refuse them would cost gigabytes.
	size, err := grid.Size()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if size > s.cfg.MaxCells {
		writeError(w, http.StatusRequestEntityTooLarge,
			"grid expands to %d cells, the server accepts at most %d per request",
			size, s.cfg.MaxCells)
		return
	}
	for _, k := range grid.Ks {
		if k > maxSweepK {
			writeError(w, http.StatusRequestEntityTooLarge,
				"k=%d exceeds the largest k the server simulates, %d", k, maxSweepK)
			return
		}
	}
	cells, err := grid.Cells()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Count a sweep only once its grid expanded and passed the size guard:
	// malformed and oversized requests must not inflate the sweep metrics.
	// The try-acquire doubles as admission control: past the configured
	// in-flight cap the request is shed immediately with 503 + Retry-After
	// instead of queueing unboundedly behind the worker pool, keeping latency
	// bounded for the sweeps already streaming. Shedding is a valid answer
	// precisely because sweeps are pure: the client retries the identical
	// request later and (thanks to the cache) may not even pay for it twice.
	if n := s.activeSweeps.Add(1); s.cfg.MaxInflightSweeps > 0 && n > int64(s.cfg.MaxInflightSweeps) {
		s.activeSweeps.Add(-1)
		s.shedSweeps.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"server at capacity: %d sweeps already in flight (limit %d), retry shortly",
			n-1, s.cfg.MaxInflightSweeps)
		return
	}
	s.totalSweeps.Add(1)
	defer s.activeSweeps.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	stream := &streamWriter{enc: json.NewEncoder(w), flusher: flusher}

	// Stream the cells in order through one ordered reduce: up to
	// cellWorkers cells compute at once, and each row is written as soon as
	// its cell and every cell before it are done. The request's own cells ×
	// trials shape picks cellWorkers and the per-cell trial fan-out
	// (scenario.AutoSplit): a grid whose every cell fills the cores with
	// shards runs one cell at a time on all cores, so no row waits on a slower
	// neighbour; a dashboard grid of one-trial cells keeps cores cells in
	// flight. Identical cells — within this request or across concurrent
	// requests — collapse in the cache, so N simultaneous identical sweeps run
	// one simulation. Memory per request is bounded by the reduce's window of
	// cellWorkers rows, never by the grid.
	cellWorkers, trialWorkers := scenario.AutoSplit(cells, s.cfg.Workers)
	runner := scenario.Runner{Workers: trialWorkers}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	next := 0 // index of the next row to stream
	err = parallel.ReduceOrdered(ctx, len(cells), cellWorkers, func(i int) (sweepRow, error) {
		cell := cells[i]
		key := cache.CellKey(cell, grid.Params)
		// Each cell gets its own runner copy so the progress hook can carry
		// the cell's stream index and the checkpointer its key. Both hooks
		// ride the computation, so a cache hit or a joined singleflight
		// produces neither progress rows nor checkpoints.
		cr := runner
		if req.Progress {
			cr.Progress = func(c scenario.Cell, p sim.Progress) {
				stream.write(progressRow{
					Type:          "progress",
					Index:         i,
					Scenario:      c.Scenario,
					K:             c.K,
					D:             c.D,
					ShardsDone:    p.ShardsDone,
					TotalShards:   p.TotalShards,
					TrialsDone:    p.TrialsDone,
					Trials:        p.TotalTrials,
					ResumedShards: p.ResumedShards,
					Found:         p.Stats.Found,
					MeanTime:      p.Stats.AllTime.Mean,
				})
			}
			cr.ProgressEvery = req.ProgressEvery
		}
		if s.cfg.Checkpoints != nil {
			ck := s.cfg.Checkpoints.ForCell(key)
			cr.Checkpointer = func(scenario.Cell) sim.Checkpointer { return ck }
			cr.CheckpointEvery = s.cfg.CheckpointEvery
		}
		st, cached, err := s.cache.Do(ctx, key, func(ctx context.Context) (sim.TrialStats, error) {
			return cr.RunOne(ctx, cell)
		})
		if err != nil {
			return sweepRow{}, err
		}
		if !cached && s.cfg.Checkpoints != nil {
			// This request computed the cell and its result is cached: the
			// prefixes are dead weight. The drop is memory-only; the next beat
			// compacts them off disk.
			s.cfg.Checkpoints.Drop(key)
		}
		return sweepRow{
			Index:    i,
			Scenario: cell.Scenario,
			K:        cell.K,
			D:        cell.D,
			Trials:   cell.Trials,
			Seed:     cell.Seed,
			Cached:   cached,
			Stats:    &st,
		}, nil
	}, func(row sweepRow) {
		// A failed write or a dead request after a flushed row means the
		// client disconnected mid-stream: stop before computing the
		// remaining cells. The request's own context is asked because a
		// parent that is not one of the context package's own types
		// reaches ctx only asynchronously.
		if !stream.write(row) || r.Context().Err() != nil {
			cancel()
		}
		next++
	})
	switch {
	case ctx.Err() != nil:
		// The client went away; the cancelled ctx stopped the cells in flight.
		s.abandonedSweeps.Add(1)
	case err != nil:
		// The reduce merged exactly the cells before the failing one, so next
		// is its index. Rows already streamed are gone; report the failure
		// in-band as the final NDJSON object.
		stream.write(sweepRow{Index: next, Error: err.Error()})
	}
}
