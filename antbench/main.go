// Command antbench is the repository benchmark. Given a workload and a seed
// it builds nothing itself (run.sh builds antserve and antexperiments from
// the tree under test), drives the binaries from this one process, checks
// every output and prints every metric by name and unit. The last line of
// standard output is the JSON result; the exit status is non-zero when an
// output check failed.
//
// Usage:
//
//	antbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: cold-cells, tiny-grid and hot-replay drive antserve over
// loopback; reproduce runs antexperiments E1–E11 passes. --trace 0 measures
// the end-to-end metrics for S seconds; --trace 1 serves a fixed op list
// over HTTP, in-process untraced and in-process traced, and prints the
// per-layer metrics with the antserve residual and the tracing overhead.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// runBudget bounds a whole run, so a hung child cannot keep it running
// past three minutes.
const runBudget = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("antbench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "workload: cold-cells, tiny-grid, hot-replay or reproduce")
		seed         = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds      = fs.Int("seconds", 10, "length of the timed window in seconds")
		trace        = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		bin          = fs.String("bin", "", "directory holding the antserve and antexperiments binaries")
		work         = fs.String("work", "", "scratch directory for stores and logs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "antbench: need -bin, -work, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*workloadName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(pinnedProcs)
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	traced := *trace == 1
	printHost(os.Stdout, w.name, *seed, traced)
	b := &bench{bin: *bin, work: dir, w: w, seconds: time.Duration(*seconds) * time.Second, out: os.Stdout}
	defer b.killAll()
	var res outcome
	switch {
	case w.name == reproduce && traced:
		res, err = b.reproduceTraced(ctx)
	case w.name == reproduce:
		res, err = b.reproduceUntraced(ctx)
	case traced:
		res, err = b.serveTraced(ctx)
	default:
		res, err = b.serveUntraced(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Println("check failed:", p)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	correct := len(res.problems) == 0 && res.failed == 0
	r, err := report(os.Stdout, defs, res.values, res.notes, res.attempted, res.failed, correct)
	if err == nil {
		err = printResult(os.Stdout, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}
