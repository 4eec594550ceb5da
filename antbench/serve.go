package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"antsearch/internal/parallel"
	"antsearch/internal/scenario"
)

// setupBoots is how many times a run boots the server; setup_s is the
// median, and the last boot serves the timed window.
const setupBoots = 5

// bench holds one run's environment.
type bench struct {
	bin, work string
	w         *workload
	seconds   time.Duration
	out       io.Writer
	dirs      int
	// fill holds hot-replay's stored rows: fill[g][i] is the raw line of
	// cell i of stored grid g.
	fill     [][][]byte
	storeDir string
	procs    []*serverProc
}

// launch starts a server, registers it with killAll and waits until it is
// healthy. A server that exits while booting (another process took its port
// between freeAddr and its listen) is retried on a new port; the returned
// time is when the attempt that came up started.
func (b *bench) launch(ctx context.Context, storeDir, ckptDir, logName string) (*serverProc, *client, time.Time, error) {
	for attempt := 1; ; attempt++ {
		start := time.Now()
		srv, err := startServer(b.bin, storeDir, ckptDir, filepath.Join(b.work, logName))
		if err != nil {
			return nil, nil, start, err
		}
		b.procs = append(b.procs, srv)
		cl := newClient(srv.addr, maxConns())
		if err = srv.waitHealthy(ctx, cl); err == nil {
			return srv, cl, start, nil
		}
		exited := false
		select {
		case <-srv.done:
			exited = true
		default:
			srv.kill()
		}
		if !exited || attempt == 3 {
			return nil, nil, start, err
		}
	}
}

// killAll kills every server still running, so a run that ends early
// leaves no process behind.
func (b *bench) killAll() {
	for _, s := range b.procs {
		s.kill()
	}
}

// dir returns a fresh directory under the run's work dir.
func (b *bench) dir(name string) (string, error) {
	b.dirs++
	d := filepath.Join(b.work, fmt.Sprintf("%s-%d", name, b.dirs))
	return d, os.MkdirAll(d, 0o755)
}

// maxConns is the client's connection budget: one per CPU.
func maxConns() int { return runtime.NumCPU() }

// boot starts a server on the workload's directories, waits until it is
// healthy and runs the warm-up op. It returns the set-up time.
func (b *bench) boot(ctx context.Context) (*serverProc, *client, time.Duration, error) {
	storeDir := b.storeDir
	if storeDir == "" {
		d, err := b.dir("store")
		if err != nil {
			return nil, nil, 0, err
		}
		storeDir = d
	}
	ckptDir, err := b.dir("ckpt")
	if err != nil {
		return nil, nil, 0, err
	}
	srv, cl, start, err := b.launch(ctx, storeDir, ckptDir, fmt.Sprintf("antserve-%d.log", b.dirs))
	if err != nil {
		return nil, nil, 0, err
	}
	o := cl.sweep(ctx, b.w.warmSweep(), nil)
	setup := time.Since(start)
	if _, _, err := b.checkOp(o, b.w.wantCached()); err != nil {
		srv.kill()
		return nil, nil, 0, fmt.Errorf("warm-up op: %w", err)
	}
	return srv, cl, setup, nil
}

// prepare runs hot-replay's untimed fill pass: a server on a fresh store
// computes the stored grids and compacts them into a snapshot at shutdown.
func (b *bench) prepare(ctx context.Context) error {
	fills := b.w.fillSweeps()
	if fills == nil {
		return nil
	}
	dir, err := b.dir("fill-store")
	if err != nil {
		return err
	}
	ckptDir, err := b.dir("fill-ckpt")
	if err != nil {
		return err
	}
	srv, cl, _, err := b.launch(ctx, dir, ckptDir, "antserve-fill.log")
	if err != nil {
		return err
	}
	defer cl.close()
	for _, f := range fills {
		o := cl.sweep(ctx, f, nil)
		cells, err := f.grid.Cells()
		if err == nil {
			err = responseErr(o)
		}
		var r response
		if err == nil {
			r, err = parseResponse(o.body, cells, false)
		}
		if err != nil {
			srv.kill()
			return fmt.Errorf("fill pass: %w", err)
		}
		b.fill = append(b.fill, r.lines)
	}
	b.storeDir = dir
	return srv.stop()
}

func responseErr(o op) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	return nil
}

// checkOp checks one response on its own: status, row structure, cached
// flags and, for hot-replay, byte equality with the stored rows. It returns
// the request's cells and the parsed response.
func (b *bench) checkOp(o op, wantCached bool) ([]scenario.Cell, response, error) {
	if err := responseErr(o); err != nil {
		return nil, response{}, err
	}
	cells, err := o.req.grid.Cells()
	if err != nil {
		return nil, response{}, err
	}
	r, err := parseResponse(o.body, cells, wantCached)
	if err != nil {
		return nil, response{}, err
	}
	if b.w.name == hotReplay {
		g := b.fillIndex(o.req)
		if g < 0 {
			return nil, response{}, fmt.Errorf("request replays no stored grid")
		}
		for i, line := range r.lines {
			if err := checkReplay(line, b.fill[g][i]); err != nil {
				return nil, response{}, fmt.Errorf("row %d: %w", i, err)
			}
		}
	}
	return cells, r, nil
}

// fillIndex returns which stored grid a hot-replay request replays; every
// stored grid has a seed of its own.
func (b *bench) fillIndex(s sweep) int {
	for g, f := range b.w.fillSweeps() {
		if f.grid.Seed == s.grid.Seed {
			return g
		}
	}
	return -1
}

// window is what a timed HTTP run measured.
type window struct {
	ops       []op
	elapsed   time.Duration
	cpu       time.Duration
	hwm       float64
	delta     statsDelta
	reconcile []string
}

// drive runs the workload's closed loop against a booted server, scraping
// /stats and the server's CPU time around it. With fixedOps > 0 every client
// issues exactly that many ops; otherwise clients start ops until the run's
// seconds have passed.
func (b *bench) drive(ctx context.Context, srv *serverProc, cl *client, fixedOps int) (window, error) {
	var win window
	var before, after serverStats
	if err := cl.getJSON(ctx, "/stats", &before); err != nil {
		return win, err
	}
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return win, err
	}
	start := time.Now()
	more := func(j int) bool { return ctx.Err() == nil && time.Since(start) < b.seconds }
	if fixedOps > 0 {
		more = func(j int) bool { return ctx.Err() == nil && j < fixedOps }
	}
	// Replayed requests return identical bodies: keeping one copy of each
	// bounds the client's memory, and the duplicate's buffer serves the
	// client's next op. A body that differs is kept as is.
	var mu sync.Mutex
	seen := map[uint64][]byte{}
	// spare[c] and hint[c] belong to client c's goroutine.
	spare, hint := make([][]byte, b.w.spec.clients), make([]int, b.w.spec.clients)
	win.ops = closedLoop(b.w.spec.clients, more, func(c, j int) op {
		buf := spare[c]
		if buf == nil {
			// Headroom over the last body's size keeps a slightly longer
			// body from doubling the buffer it is kept in.
			buf = make([]byte, 0, max(hint[c]+hint[c]/16, 64<<10))
		}
		spare[c] = nil
		o := cl.sweep(ctx, b.w.opSweep(c, j), buf)
		hint[c] = len(o.body)
		mu.Lock()
		if prev, ok := seen[o.req.grid.Seed]; ok && bytes.Equal(prev, o.body) {
			spare[c], o.body = o.body, prev
		} else if !ok {
			seen[o.req.grid.Seed] = o.body
		}
		mu.Unlock()
		return o
	})
	win.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return win, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return win, err
	}
	win.cpu = cpu1 - cpu0
	if win.hwm, err = procHWM(pid); err != nil {
		return win, err
	}
	if err := cl.getJSON(ctx, "/stats", &after); err != nil {
		return win, err
	}
	win.delta = diffStats(before, after)
	cells := 0
	for _, o := range win.ops {
		cells += gridCells(o.req)
	}
	hits, misses := 0, cells
	if b.w.wantCached() {
		hits, misses = cells, 0
	}
	win.reconcile = reconcile(win.delta, len(win.ops), hits, misses, b.w.name == coldCells)
	return win, nil
}

func gridCells(s sweep) int {
	return len(s.grid.Scenarios) * len(s.grid.Ks) * len(s.grid.Ds)
}

// verify checks every op of a window and returns how many failed, with the
// first failure of each kind. Cold-cells recomputes a seeded sample of rows
// that covers every scenario; tiny-grid recomputes every row; hot-replay
// compares every row with the stored one.
func (b *bench) verify(ctx context.Context, ops []op) (failed int, msgs []string) {
	// The kept bodies make a large live heap; collecting more eagerly while
	// the checks parse them bounds the harness's memory. The timed window is
	// over, so this costs no measurement anything.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	bad := make([]bool, len(ops))
	note := func(i int, err error) {
		if !bad[i] {
			msgs = append(msgs, fmt.Sprintf("op %d (client %d): %v", i, ops[i].client, err))
		}
		bad[i] = true
	}
	type sample struct {
		op   int
		cell scenario.Cell
		raw  []byte
	}
	samples := map[string][]sample{}
	// Replayed ops share one copy of each identical body (see drive), and
	// a body that passed once passes again.
	passed := map[*byte]bool{}
	for i, o := range ops {
		if len(o.body) > 0 && passed[&o.body[0]] {
			continue
		}
		cells, r, err := b.checkOp(o, b.w.wantCached())
		if err != nil {
			note(i, err)
			continue
		}
		switch b.w.name {
		case hotReplay:
			passed[&o.body[0]] = true
			continue
		case tinyGrid:
			if err := recheck(ctx, cells, r.rows, 1, pinnedProcs); err != nil {
				note(i, err)
			}
			continue
		}
		for k, row := range r.rows {
			samples[row.Scenario] = append(samples[row.Scenario], sample{i, cells[k], row.Stats})
		}
	}
	rng := rand.New(rand.NewPCG(b.w.seed, 0x5a17))
	for _, name := range coldScenarios {
		list := samples[name]
		if len(list) == 0 {
			continue
		}
		s := list[rng.IntN(len(list))]
		if err := recheck(ctx, []scenario.Cell{s.cell}, []wireRow{{Stats: s.raw}}, pinnedProcs, 1); err != nil {
			note(s.op, err)
		}
	}
	for _, x := range bad {
		if x {
			failed++
		}
	}
	return failed, msgs
}

// recheck recomputes cells in-process with scenario.Runner.RunOne and
// compares each row's stats bytes with the result.
func recheck(ctx context.Context, cells []scenario.Cell, rows []wireRow, trialWorkers, cellWorkers int) error {
	var mu sync.Mutex
	var first error
	err := parallel.ForEach(ctx, len(cells), cellWorkers, func(i int) error {
		st, err := scenario.Runner{Workers: trialWorkers}.RunOne(ctx, cells[i])
		if err == nil {
			err = checkStats(rows[i].Stats, st)
		}
		if err != nil {
			mu.Lock()
			if first == nil {
				first = fmt.Errorf("cell %d (%s k=%d D=%d): %w", i, cells[i].Scenario, cells[i].K, cells[i].D, err)
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return first
}

// outcome is what a run reports: metric values, notes printed beside them,
// the op counts and every check that failed.
type outcome struct {
	values            map[string]float64
	notes             map[string]string
	attempted, failed int
	problems          []string
}

func newOutcome() outcome {
	return outcome{values: map[string]float64{}, notes: map[string]string{}}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// bootAll sets the server up setupBoots times and keeps the last one.
func (b *bench) bootAll(ctx context.Context) (*serverProc, *client, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		srv, cl, setup, err := b.boot(ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, setup.Seconds())
		if i == setupBoots-1 {
			return srv, cl, setups, nil
		}
		cl.close()
		if err := srv.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// finish stops the server gracefully after a window and checks its ops.
func (b *bench) finish(ctx context.Context, srv *serverProc, cl *client, win window, res *outcome) error {
	cl.close()
	if err := srv.stop(); err != nil {
		return err
	}
	failed, msgs := b.verify(ctx, win.ops)
	res.attempted, res.failed = len(win.ops), failed
	res.problems = append(res.problems, msgs...)
	res.problems = append(res.problems, win.reconcile...)
	return nil
}

// serveUntraced is the end-to-end run of a serving workload: set up
// setupBoots times, drive the closed loop for the run's seconds, then check
// every op.
func (b *bench) serveUntraced(ctx context.Context) (outcome, error) {
	res := newOutcome()
	if err := b.prepare(ctx); err != nil {
		return res, err
	}
	srv, cl, setups, err := b.bootAll(ctx)
	if err != nil {
		return res, err
	}
	win, err := b.drive(ctx, srv, cl, 0)
	if err != nil {
		srv.kill()
		return res, err
	}
	if err := b.finish(ctx, srv, cl, win, &res); err != nil {
		return res, err
	}
	var lat, first []float64
	cells, trials := 0, 0
	for _, o := range win.ops {
		lat = append(lat, ms(o.lastByte))
		first = append(first, ms(o.firstLine))
		n := gridCells(o.req)
		cells += n
		trials += n * o.req.grid.Trials
	}
	n, secs := float64(len(win.ops)), win.elapsed.Seconds()
	v := res.values
	v["setup_s"] = median(setups)
	v["ops_per_s"] = n / secs
	v["op_p50_ms"] = median(lat)
	_, v["op_tail_ms"], _ = tail(lat)
	res.notes["op_tail_ms"] = tailNote(lat)
	v["first_row_p50_ms"] = median(first)
	v["cells_per_s"] = float64(cells) / secs
	v["trials_per_s"] = float64(trials) / secs
	v["cpu_ms_per_op"] = ms(win.cpu) / n
	v["peak_rss_mb"] = win.hwm
	v["ok_frac"] = (n - float64(res.failed)) / n
	res.notes["setup_s"] = fmt.Sprintf("median of %d boots", len(setups))
	return res, nil
}

// inprocRun is one in-process pass over the traced run's fixed ops.
type inprocRun struct {
	ops        []op
	svc        *service
	spans      []span
	loadSpans  []span
	storeBytes int64 // store directory growth over the ops
	ckptBytes  int64 // checkpoint directory growth over the ops
	misses     uint64
}

// inproc serves the fixed op list in-process, on fresh directories (a copy
// of the filled store for hot-replay), after the same warm-up op as the
// server. With a recorder the pass is traced.
func (b *bench) inproc(ctx context.Context, rec *recorder) (inprocRun, error) {
	var run inprocRun
	storeDir, err := b.dir("inproc-store")
	if err != nil {
		return run, err
	}
	if b.storeDir != "" {
		if err := copyDir(b.storeDir, storeDir); err != nil {
			return run, err
		}
	}
	ckptDir, err := b.dir("inproc-ckpt")
	if err != nil {
		return run, err
	}
	svc, err := openService(storeDir, ckptDir, rec)
	if err != nil {
		return run, err
	}
	run.svc = svc
	if _, err := svc.sweep(ctx, 0, b.w.warmSweep()); err != nil {
		_ = svc.close() // the warm-up error is the one to report
		return run, fmt.Errorf("in-process warm-up: %w", err)
	}
	run.loadSpans = rec.take()
	svc.cells, svc.rows, svc.rowBytes = nil, 0, 0
	st0 := svc.cache.Stats()
	store0, ckpt0 := dirSize(storeDir), dirSize(ckptDir)
	n := b.w.spec.traceOps
	run.ops = closedLoop(b.w.spec.clients, func(j int) bool { return j < n }, func(c, j int) op {
		s := b.w.opSweep(c, j)
		start := time.Now()
		body, err := svc.sweep(ctx, int32(c*n+j+1), s)
		return op{req: s, lastByte: time.Since(start), body: body, err: err, status: http.StatusOK}
	})
	run.misses = svc.cache.Stats().Misses - st0.Misses
	run.storeBytes, run.ckptBytes = dirSize(storeDir)-store0, dirSize(ckptDir)-ckpt0
	run.spans = rec.take()
	for _, o := range run.ops {
		if o.err != nil {
			_ = svc.close() // the sweep error is the one to report
			return run, fmt.Errorf("in-process op: %w", o.err)
		}
	}
	return run, svc.close()
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirSize sums the sizes of a directory's regular files (0 if unreadable).
func dirSize(dir string) int64 {
	ents, _ := os.ReadDir(dir) // a missing directory holds no bytes
	var total int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// serveTraced is the traced run of a serving workload. It serves a fixed op
// list three times: over HTTP, in-process untraced and in-process traced.
// The first two give the antserve residual, the last two the tracing
// overhead, and the traced pass the per-layer numbers.
func (b *bench) serveTraced(ctx context.Context) (outcome, error) {
	res := newOutcome()
	if err := b.prepare(ctx); err != nil {
		return res, err
	}
	srv, cl, setup, err := b.boot(ctx)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(b.out, "setup: %.3fs (one boot)\n", setup.Seconds())
	win, err := b.drive(ctx, srv, cl, b.w.spec.traceOps)
	if err != nil {
		srv.kill()
		return res, err
	}
	if err := b.finish(ctx, srv, cl, win, &res); err != nil {
		return res, err
	}
	plain, err := b.inproc(ctx, nil)
	if err != nil {
		return res, err
	}
	rec := newRecorder()
	traced, err := b.inproc(ctx, rec)
	if err != nil {
		return res, err
	}
	// The in-process passes must serve exactly what the server served.
	bodies := map[[2]int][]byte{}
	for _, o := range plain.ops {
		bodies[[2]int{o.client, o.index}] = resultLines(o.body)
	}
	for _, o := range win.ops {
		if got := resultLines(o.body); string(got) != string(bodies[[2]int{o.client, o.index}]) {
			res.problems = append(res.problems, fmt.Sprintf("op %d of client %d: HTTP rows differ from the in-process rows", o.index, o.client))
		}
	}
	if traced.misses != win.delta.misses {
		res.problems = append(res.problems, fmt.Sprintf("in-process traced pass computed %d cells, the server %d", traced.misses, win.delta.misses))
	}
	probs, err := layerMetrics(ctx, b, res.values, win, plain, traced)
	res.problems = append(res.problems, probs...)
	return res, err
}
