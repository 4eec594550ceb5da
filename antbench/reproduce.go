package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"antsearch/internal/experiments"
	"antsearch/internal/grid"
	"antsearch/internal/metrics"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/xrand"
)

// cliLaunches is how many quick antexperiments launches a reproduce run
// makes: setup_s is their median launch-to-exit time and first_row_p50_ms
// the median launch-to-first-line time. They run in three groups (before
// the window, after it and after the recheck pass) so that a moment of host
// contention skews at most a third of them.
const cliLaunches = 42

// cliPass is one antexperiments process.
type cliPass struct {
	out       []byte
	firstLine time.Duration
	wall      time.Duration
	cpu       time.Duration
	maxRSS    float64 // MB
	fails     int     // reproduction checks reported FAIL
}

var failedChecks = regexp.MustCompile(`^antexperiments: (\d+) check\(s\) failed\s*$`)

// runCLI runs antexperiments with GOMAXPROCS pinned, stamping its first line
// of output. Exit status 1 is a completed pass when stderr reports exactly
// the FAIL verdicts printed on stdout: a paper claim missing its shape check
// on some seed is a result, not a failed run.
func runCLI(ctx context.Context, bin string, args ...string) (cliPass, error) {
	var p cliPass
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "antexperiments"), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return p, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return p, err
	}
	var out bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, err := stdout.Read(chunk)
		if p.firstLine == 0 && bytes.IndexByte(chunk[:n], '\n') >= 0 {
			p.firstLine = time.Since(start)
		}
		out.Write(chunk[:n])
		if err != nil {
			break
		}
	}
	waitErr := cmd.Wait()
	p.wall = time.Since(start)
	p.out = out.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.maxRSS = float64(ru.Maxrss) / 1024
	}
	p.fails = bytes.Count(p.out, []byte("check [FAIL]"))
	if waitErr == nil {
		if p.fails != 0 {
			return p, fmt.Errorf("antexperiments exited 0 with %d FAIL verdicts", p.fails)
		}
		return p, nil
	}
	m := failedChecks.FindStringSubmatch(stderr.String())
	if cmd.ProcessState.ExitCode() == 1 && m != nil && m[1] == strconv.Itoa(p.fails) {
		return p, nil
	}
	return p, fmt.Errorf("antexperiments %s: %v: %s", strings.Join(args, " "), waitErr, strings.TrimSpace(stderr.String()))
}

// normalize drops the wall-clock lines of a report, leaving what must be
// identical across passes of one seed.
func normalize(out []byte) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.HasPrefix(line, "elapsed: ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

var (
	separator     = regexp.MustCompile(`^-+(  -+)*\s*$`)
	trialsPerCell = regexp.MustCompile(`trials per cell: (\d+)|(\d+) trials per cell|over (\d+) trials`)
)

// reportCells counts the data rows of every table in a report, and the
// trials they stand for: each table's rows times the trials per cell its
// first note states (0 for a table whose notes state none).
func reportCells(report string) (rows, trials int) {
	lines := strings.Split(report, "\n")
	for i := 0; i < len(lines); i++ {
		if !separator.MatchString(lines[i]) {
			continue
		}
		n := 0
		for i++; i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "note: "); i++ {
			n++
		}
		per := 0
		for ; i < len(lines) && strings.HasPrefix(lines[i], "note: "); i++ {
			if m := trialsPerCell.FindStringSubmatch(lines[i]); m != nil && per == 0 {
				per, _ = strconv.Atoi(m[1] + m[2] + m[3]) // exactly one group matched digits
			}
		}
		rows += n
		trials += n * per
	}
	return rows, trials
}

// recheckIDs are the experiments a reproduce run passes a second time to
// check that its report repeats: the cheap ones, plus E4, which carries the
// exact engine and sets the pass's peak memory; about half a pass. Traced
// runs compare whole reports instead.
const recheckIDs = "E1,E2,E4,E5,E6,E9,E10,E11"

// sections splits a normalized report into its experiments' sections, keyed
// by experiment ID, in report order.
func sections(report string) (ids []string, byID map[string]string) {
	byID = map[string]string{}
	parts := strings.Split(report, "==== ")
	for _, p := range parts[1:] {
		id, _, _ := strings.Cut(p, ":")
		ids = append(ids, id)
		byID[id] = p
	}
	return ids, byID
}

// checkReport checks a full pass's report: E1–E11 in order, each with at
// least one check verdict, and every section that the recheck pass repeated
// identical to it.
func checkReport(report string, recheck map[string]string) error {
	ids, byID := sections(report)
	if len(ids) != 11 {
		return fmt.Errorf("report has %d experiment sections, want 11", len(ids))
	}
	for i, id := range ids {
		if id != fmt.Sprintf("E%d", i+1) {
			return fmt.Errorf("section %d is %s, want E%d", i+1, id, i+1)
		}
		if !strings.Contains(byID[id], "\ncheck [") {
			return fmt.Errorf("%s reports no check verdict", id)
		}
		if r, ok := recheck[id]; ok && r != byID[id] {
			return fmt.Errorf("%s differs between the pass and its recheck", id)
		}
	}
	return nil
}

// reproduceUntraced is the end-to-end run of the reproduce workload: quick
// launches for set-up, then full passes with the workload seed while the
// window has room for one more (at least one), then a recheck pass whose
// sections must repeat byte for byte. The pass's peak memory is E4's, which
// varies with garbage-collection timing, so peak_rss_mb is the median over
// every process that ran E4.
func (b *bench) reproduceUntraced(ctx context.Context) (outcome, error) {
	res := newOutcome()
	var setups, firsts []float64
	launch := func() error {
		for i := 0; i < cliLaunches/3; i++ {
			warm := strconv.FormatUint(b.w.warmSeed(len(setups)), 10)
			p, err := runCLI(ctx, b.bin, "-run", "E1", "-scale", "quick", "-seed", warm)
			if err != nil {
				return err
			}
			setups = append(setups, p.wall.Seconds())
			firsts = append(firsts, ms(p.firstLine))
		}
		return nil
	}
	if err := launch(); err != nil {
		return res, err
	}
	seed := strconv.FormatUint(b.w.seed, 10)
	var passes []cliPass
	var errs []error
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+passes[len(passes)-1].wall <= b.seconds {
		p, err := runCLI(ctx, b.bin, "-seed", seed)
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		passes = append(passes, p)
		errs = append(errs, err)
	}
	elapsed := time.Since(start).Seconds()
	if err := launch(); err != nil {
		return res, err
	}
	again, err := runCLI(ctx, b.bin, "-run", recheckIDs, "-seed", seed)
	if err != nil {
		return res, fmt.Errorf("recheck pass: %w", err)
	}
	if err := launch(); err != nil {
		return res, err
	}
	_, recheck := sections(normalize(again.out))
	rows, trials := reportCells(normalize(passes[0].out))
	var lat []float64
	var cpu float64
	rss := []float64{again.maxRSS}
	for i, p := range passes {
		if errs[i] == nil {
			errs[i] = checkReport(normalize(p.out), recheck)
		}
		if errs[i] != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("pass %d: %v", i, errs[i]))
		}
		lat = append(lat, ms(p.wall))
		firsts = append(firsts, ms(p.firstLine))
		cpu += ms(p.cpu)
		rss = append(rss, p.maxRSS)
	}
	n := float64(len(passes))
	res.attempted = len(passes)
	v := res.values
	v["setup_s"] = median(setups)
	v["ops_per_s"] = n / elapsed
	v["op_p50_ms"] = median(lat)
	_, v["op_tail_ms"], _ = tail(lat)
	v["first_row_p50_ms"] = median(firsts)
	v["cells_per_s"] = float64(rows) * n / elapsed
	v["trials_per_s"] = float64(trials) * n / elapsed
	v["cpu_ms_per_op"] = cpu / n
	v["peak_rss_mb"] = median(rss)
	v["ok_frac"] = (n - float64(res.failed)) / n
	res.notes["setup_s"] = fmt.Sprintf("median of %d quick E1 launches", cliLaunches)
	res.notes["op_tail_ms"] = tailNote(lat)
	res.notes["first_row_p50_ms"] = fmt.Sprintf("launch to first report line, median of %d launches", len(firsts))
	res.notes["cells_per_s"] = fmt.Sprintf("%d table rows per pass", rows)
	res.notes["trials_per_s"] = fmt.Sprintf("%d trials per pass, as the tables' notes state", trials)
	res.notes["peak_rss_mb"] = fmt.Sprintf("median over %d passes and the recheck, all running E4", len(passes))
	return res, nil
}

// renderExperiment writes an outcome the way antexperiments prints it, minus
// the elapsed line.
func renderExperiment(w io.Writer, exp experiments.Experiment, o *experiments.Outcome) {
	for _, t := range o.Tables {
		fmt.Fprintln(w, t.ASCII())
	}
	for _, f := range o.Findings {
		fmt.Fprintf(w, "finding: %s\n", f)
	}
	for _, c := range o.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// passInProcess runs E1–E11 through experiments.ByID(id).Run in this
// process and returns the rendered report and the wall time. With a
// recorder each experiment is a span.
func passInProcess(ctx context.Context, seed uint64, rec *recorder) (string, time.Duration, error) {
	var b strings.Builder
	start := time.Now()
	root := rec.start(spanOp, 0, 1)
	for i := 1; i <= 11; i++ {
		exp, ok := experiments.ByID(fmt.Sprintf("E%d", i))
		if !ok {
			return "", 0, fmt.Errorf("experiment E%d is not registered", i)
		}
		fmt.Fprintf(&b, "==== %s: %s ====\n", exp.ID, exp.Title)
		fmt.Fprintf(&b, "claim: %s\n\n", exp.Claim)
		sp := rec.start(spanExperiment, root.id(), int32(i))
		o, err := exp.Run(ctx, experiments.Config{Seed: seed, Scale: experiments.Standard})
		sp.end()
		if err != nil {
			return "", 0, fmt.Errorf("%s: %w", exp.ID, err)
		}
		renderExperiment(&b, exp, o)
	}
	root.end()
	return b.String(), time.Since(start), nil
}

// exactProbe times sim.RunExact with a metrics.Coverage visitor on
// instances shaped like the exact-engine work of a standard pass: E4's
// coverage accounting (uniform(0.5), k=8, unreachable treasure, horizon
// 20000) and E9's overlap runs (known-k and uniform, k=16, D=32). It
// returns microseconds per trial.
func exactProbe(seed uint64) (float64, error) {
	type inst struct {
		scenario string
		k        int
		treasure func(trial int) grid.Point
		maxTime  int
	}
	const horizon, d, trials = 20000, 32, 2
	ring := func(tag uint64) func(int) grid.Point {
		return func(trial int) grid.Point {
			return xrand.NewStream(seed, tag, uint64(trial)).UniformRingPoint(d)
		}
	}
	insts := []inst{
		{"uniform", 8, func(int) grid.Point { return grid.Point{X: horizon + 1} }, horizon},
		{"known-k", 16, ring(9), 0},
		{"uniform", 16, ring(90), 0},
	}
	var total time.Duration
	n := 0
	for i, in := range insts {
		f, err := scenario.Factory(in.scenario, scenario.DefaultParams())
		if err != nil {
			return 0, err
		}
		alg := f(in.k)
		for trial := 0; trial < trials; trial++ {
			cov := metrics.NewCoverage(in.k)
			start := time.Now()
			_, err := sim.RunExact(sim.Instance{Algorithm: alg, NumAgents: in.k, Treasure: in.treasure(trial)},
				sim.Options{Seed: xrand.DeriveSeed(seed, uint64(i), uint64(trial)), MaxTime: in.maxTime}, cov.Visit)
			total += time.Since(start)
			if err != nil {
				return 0, fmt.Errorf("exact probe %s k=%d: %w", in.scenario, in.k, err)
			}
			n++
		}
	}
	return float64(total) / float64(n) / 1e3, nil
}

// reproduceTraced is the traced run of the reproduce workload: one pass
// through the CLI, one untraced and one traced pass in-process, and the
// exact-engine probe. All three reports must agree.
func (b *bench) reproduceTraced(ctx context.Context) (outcome, error) {
	res := newOutcome()
	cli, err := runCLI(ctx, b.bin, "-seed", strconv.FormatUint(b.w.seed, 10))
	res.attempted = 1
	if err != nil {
		return res, err
	}
	plain, plainWall, err := passInProcess(ctx, b.w.seed, nil)
	if err != nil {
		return res, err
	}
	rec := newRecorder()
	traced, tracedWall, err := passInProcess(ctx, b.w.seed, rec)
	if err != nil {
		return res, err
	}
	if want := normalize(cli.out); plain != want || traced != want {
		res.failed = 1
		res.problems = append(res.problems, "in-process report differs from the antexperiments report")
	}
	spans := rec.take()
	v := res.values
	for _, s := range spans {
		if s.kind == spanExperiment {
			v[fmt.Sprintf("experiments.E%02d_ms", s.op)] = float64(s.dur()) / 1e6
		}
	}
	v["experiments.checks_failed"] = float64(cli.fails)
	if v["sim.exact_us_per_trial"], err = exactProbe(b.w.seed); err != nil {
		return res, err
	}
	e2e, plainMs, tracedMs := ms(cli.wall), ms(plainWall), ms(tracedWall)
	v["trace.e2e_op_ms"] = e2e
	v["trace.inproc_op_ms"] = plainMs
	v["trace.overhead_ms_per_op"] = tracedMs - plainMs
	t := totals(spans)
	var selfSum float64
	for k := spanOp; k < numSpanKinds; k++ {
		selfSum += t.self[k]
	}
	v["trace.layer_self_sum_ms_per_op"] = selfSum / 1e6
	printResidual(b.out, t, 1, tracedMs, plainMs, e2e, "antexperiments CLI")
	return res, nil
}
