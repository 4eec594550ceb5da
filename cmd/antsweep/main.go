// Command antsweep estimates the expected running time of one or more
// algorithms over a grid of (k, D) values and prints the results as a table
// (ASCII, Markdown or CSV), one row per cell. It is the free-form companion
// to cmd/antexperiments: the experiments have fixed workloads and pass
// criteria, antsweep lets you explore any slice of the parameter space.
//
// Usage:
//
//	antsweep -algs known-k,uniform -k 1,4,16,64 -d 32,128 -trials 50
//	         [-eps 0.5] [-delta 0.5] [-seed 1] [-format ascii] [-max-time N]
//	         [-crash-prob 0 -crash-by N] [-stall-prob 0 -stall-by N -stall-dur N]
//	         [-workers 0] [-progress] [-checkpoint-dir ""] [-checkpoint-every 0]
//	         [-cpuprofile sweep.pprof] [-memprofile heap.pprof]
//
// The -algs names come from the scenario registry; -list enumerates them.
// Trials run through the streaming sweep engine, so arbitrarily large
// -trials values execute in constant memory; -workers is the core budget
// (0 = GOMAXPROCS) that scenario.Runner.Run divides between cells and
// trials, cells first: many cells take one core each, and only a grid of
// fewer cells than cores fans each cell's trials over the rest.
// -cpuprofile and -memprofile write pprof profiles of the sweep (the whole
// run, flags included), so the hot path can be profiled on any real
// workload without patching the source.
//
// -progress streams per-shard progress lines to stderr while cells compute
// (stdout keeps the table, so the output stays pipeable). -checkpoint-dir
// enables shard-range checkpointing: every -checkpoint-every shards (0 = the
// engine default) the running prefix aggregate is persisted, and a rerun of
// the same sweep after an interruption resumes each cell from its longest
// valid prefix instead of from trial zero — bit-identically, per DESIGN.md
// §11. A sweep that completes drops its own cells' checkpoints on exit.
//
// The -crash-*/-stall-* flags subject every agent to the fault model of
// DESIGN.md §10 (fail-stop crashes and fail-stall pauses drawn per trial);
// the registered -faulty scenario variants carry a default plan without any
// flags. Faulty sweeps report two extra columns: the mean number of agents
// that survived past the first hit, and the competitive ratio rebased on
// that survivor count k′ (time / (D + D²/k′)).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"antsearch"
	"antsearch/internal/cache"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "antsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	return runWith(args, out, os.Stderr)
}

// runWith is run with the diagnostic stream made explicit: -progress lines go
// to errw so tests can capture them while stdout keeps the table.
func runWith(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("antsweep", flag.ContinueOnError)
	var (
		algList   = fs.String("algs", "known-k,uniform", "comma-separated algorithms to sweep")
		kList     = fs.String("k", "1,4,16", "comma-separated agent counts")
		dList     = fs.String("d", "32", "comma-separated treasure distances")
		trials    = fs.Int("trials", 32, "Monte-Carlo trials per cell")
		eps       = fs.Float64("eps", 0.5, "epsilon (uniform, approx-hedge)")
		delta     = fs.Float64("delta", 0.5, "delta (harmonic variants)")
		rho       = fs.Float64("rho", 2, "rho (rho-approx)")
		mu        = fs.Float64("mu", 2, "mu (levy)")
		seed      = fs.Uint64("seed", 1, "base random seed")
		crashP    = fs.Float64("crash-prob", 0, "per-agent fail-stop probability per trial (0 = no crashes)")
		crashBy   = fs.Int("crash-by", 0, "crash times are drawn uniformly over [0, crash-by) (required with -crash-prob)")
		stallP    = fs.Float64("stall-prob", 0, "per-agent fail-stall probability per trial (0 = no stalls)")
		stallBy   = fs.Int("stall-by", 0, "stall start times are drawn uniformly over [0, stall-by) (required with -stall-prob)")
		stallDur  = fs.Int("stall-dur", 0, "stall lengths are drawn uniformly over [1, stall-dur] (required with -stall-prob)")
		maxTime   = fs.Int("max-time", 0, "per-trial time cap (0 = engine default)")
		format    = fs.String("format", "ascii", "output format: ascii, markdown or csv")
		workers   = fs.Int("workers", 0, "cores, split between cells and trials, cells first (0 = GOMAXPROCS)")
		progress  = fs.Bool("progress", false, "stream per-shard progress lines to stderr while cells compute")
		ckptDir   = fs.String("checkpoint-dir", "", "persist shard-range checkpoints here; a rerun resumes interrupted cells")
		ckptEvery = fs.Int("checkpoint-every", 0, "shards between persisted checkpoints (0 = engine default; needs -checkpoint-dir)")
		list      = fs.Bool("list", false, "list the registered scenarios and exit")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		// Written on every return path, successful or not, so a sweep
		// interrupted by a late error still leaves a usable profile.
		defer func() {
			defer f.Close()
			runtime.GC() // settle live-object accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "antsweep: -memprofile:", err)
			}
		}()
	}
	if *list {
		for _, name := range antsearch.Scenarios() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	// Validate every numeric knob at the CLI boundary so misuse surfaces as
	// an actionable flag message, not a deep engine error (or a silently
	// ignored value) later on.
	ks, err := parseInts(*kList)
	if err != nil {
		return fmt.Errorf("-k: %w", err)
	}
	ds, err := parseInts(*dList)
	if err != nil {
		return fmt.Errorf("-d: %w", err)
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", *trials)
	}
	if *maxTime < 0 {
		return fmt.Errorf("-max-time must be >= 0 (0 = engine default), got %d", *maxTime)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 (0 = engine default), got %d", *ckptEvery)
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint-dir to persist into")
	}

	var names []string
	for _, algName := range strings.Split(*algList, ",") {
		if algName = strings.TrimSpace(algName); algName != "" {
			names = append(names, algName)
		}
	}

	// Expand the (scenario × D × k) grid and run every cell through the
	// streaming sweep engine: trials are sharded over workers and folded into
	// one running accumulator in trial order, so memory stays flat however
	// large -trials.
	params := scenario.Params{
		Epsilon: *eps, Delta: *delta, Rho: *rho, Mu: *mu,
		CrashProb: *crashP, CrashBy: *crashBy,
		StallProb: *stallP, StallBy: *stallBy, StallDur: *stallDur,
	}
	cells, err := scenario.Grid{
		Scenarios: names,
		Params:    params,
		Ks:        ks,
		Ds:        ds,
		Trials:    *trials,
		MaxTime:   *maxTime,
		Seed:      *seed,
	}.Cells()
	if err != nil {
		return err
	}
	runner := scenario.Runner{Workers: *workers}
	if *progress {
		// Cells may run concurrently; one mutex keeps their lines whole.
		var mu sync.Mutex
		runner.Progress = func(cell scenario.Cell, p sim.Progress) {
			mu.Lock()
			defer mu.Unlock()
			resumed := ""
			if p.ResumedShards > 0 {
				resumed = fmt.Sprintf(" (resumed %d)", p.ResumedShards)
			}
			fmt.Fprintf(errw, "antsweep: %s k=%d D=%d shard %d/%d trials %d/%d%s\n",
				cell.Scenario, cell.K, cell.D,
				p.ShardsDone, p.TotalShards, p.TrialsDone, p.TotalTrials, resumed)
		}
	}
	var ckpts *cache.CheckpointStore
	if *ckptDir != "" {
		ckpts, err = cache.OpenCheckpointStore(*ckptDir)
		if err != nil {
			return fmt.Errorf("-checkpoint-dir: %w", err)
		}
		defer ckpts.Close()
		runner.Checkpointer = func(cell scenario.Cell) sim.Checkpointer {
			return ckpts.ForCell(cache.CellKey(cell, params))
		}
		runner.CheckpointEvery = *ckptEvery
	}
	stats, err := runner.Run(context.Background(), cells)
	if err != nil {
		return err
	}
	if ckpts != nil {
		// Every swept cell finished, so its checkpoints are dead weight; the
		// deferred Close compacts them off disk. Cells from other sweeps
		// sharing the directory stay resumable.
		for _, cell := range cells {
			ckpts.Drop(cache.CellKey(cell, params))
		}
	}

	// Faulty sweeps (explicit flags or a -faulty scenario variant) get two
	// extra columns: mean survivors and the k′-rebased competitive ratio.
	// Fault-free output keeps the historical shape.
	faulty := false
	for _, cell := range cells {
		if cell.Faults != nil {
			faulty = true
			break
		}
	}
	cols := []string{"algorithm", "k", "D", "trials", "success", "mean time",
		"median time", "D + D²/k", "ratio", "speed-up vs k=1"}
	if faulty {
		cols = append(cols, "survivors", "k'-ratio")
	}
	tbl := table.New("antsweep", cols...)
	timeAtK1 := 0.0
	for i, cell := range cells {
		est := stats[i]
		if cell.K == ks[0] {
			timeAtK1 = est.MeanTime()
		}
		lb := antsearch.LowerBound(cell.D, cell.K)
		row := []any{cell.Scenario, cell.K, cell.D, est.Trials, est.SuccessRate(), est.MeanTime(),
			est.MedianTime(), lb, est.MeanTime() / lb, antsearch.Speedup(timeAtK1, est.MeanTime())}
		if faulty {
			row = append(row, est.MeanSurvivors(), est.MeanSurvivorRatio())
		}
		tbl.MustAddRow(row...)
	}
	tbl.AddNote("seed %d, %d trials per cell; speed-up is relative to the first k value listed", *seed, *trials)
	if faulty {
		tbl.AddNote("faults active: survivors counts agents alive past the first hit; k'-ratio rebases the bound on them")
	}

	switch strings.ToLower(*format) {
	case "ascii", "":
		fmt.Fprint(out, tbl.ASCII())
	case "markdown", "md":
		fmt.Fprint(out, tbl.Markdown())
	case "csv":
		fmt.Fprint(out, tbl.CSV())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("invalid integer %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("values must be positive, got %d", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
