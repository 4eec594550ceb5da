// Package experiments defines the reproduction experiments E1–E11 listed in
// DESIGN.md. The paper has no empirical tables or figures — it is a theory
// paper — so each experiment turns one quantitative claim (a theorem, a
// corollary, or a modelling assertion from the introduction) into a concrete
// measurement with an explicit pass criterion on the *shape* of the result:
// who wins, how ratios grow with k and D, where the success-probability
// threshold sits. The cmd/antexperiments tool runs them and prints their
// tables (DESIGN.md §4 lists them); bench_test.go exposes each one as a
// testing.B benchmark.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/table"
	"antsearch/internal/xrand"
)

// Scale selects how much work an experiment performs. Quick keeps everything
// small enough for unit tests and CI smoke runs; Standard is the default for
// the reproduction report (DESIGN.md §4); Full uses larger sweeps for tighter
// estimates.
type Scale int

// The supported scales.
const (
	Quick Scale = iota + 1
	Standard
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Standard:
		return "standard"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// Config carries the knobs shared by all experiments.
type Config struct {
	// Seed drives all randomness; identical configs reproduce identical
	// tables.
	Seed uint64
	// Scale selects the sweep sizes (default Standard).
	Scale Scale
	// Workers bounds the number of goroutines (0 = GOMAXPROCS).
	Workers int
}

// scale returns the effective scale.
func (c Config) scale() Scale {
	if c.Scale == 0 {
		return Standard
	}
	return c.Scale
}

// pick returns the value matching the configured scale.
func pick[T any](c Config, quick, standard, full T) T {
	switch c.scale() {
	case Quick:
		return quick
	case Full:
		return full
	default:
		return standard
	}
}

// Check is one named pass/fail criterion of an experiment.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Outcome is what an experiment produces: tables for the report, a list of
// headline findings, and the pass/fail checks that define "reproduced".
type Outcome struct {
	Tables   []*table.Table
	Findings []string
	Checks   []Check
}

// addCheck appends a check.
func (o *Outcome) addCheck(name string, pass bool, format string, args ...any) {
	o.Checks = append(o.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// addFinding appends a headline finding.
func (o *Outcome) addFinding(format string, args ...any) {
	o.Findings = append(o.Findings, fmt.Sprintf(format, args...))
}

// Experiment is one entry of the registry.
type Experiment struct {
	// ID is the stable identifier used by DESIGN.md §4, the CLI and the
	// benchmarks (e.g. "E1").
	ID string
	// Title is a one-line description.
	Title string
	// Claim names the paper statement the experiment reproduces.
	Claim string
	// Run executes the experiment.
	Run func(ctx context.Context, cfg Config) (*Outcome, error)
}

// All returns the registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		experimentE1(),
		experimentE2(),
		experimentE3(),
		experimentE4(),
		experimentE5(),
		experimentE6(),
		experimentE7(),
		experimentE8(),
		experimentE9(),
		experimentE10(),
		experimentE11(),
	}
	sort.Slice(exps, func(i, j int) bool { return idOrder(exps[i].ID) < idOrder(exps[j].ID) })
	return exps
}

// idOrder turns "E10" into 10 for sorting.
func idOrder(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runSweep executes the cells through the scenario sweep engine (streaming,
// sharded Monte Carlo, the treasure uniform on the ring at D), returning
// statistics index for index. Each cell's Scenario is its label, and its
// seed derives from the experiment seed and that label, so distinct cells
// draw independent randomness; runSweep sets the Seed field in place.
func runSweep(ctx context.Context, cfg Config, cells []scenario.Cell) ([]sim.TrialStats, error) {
	for i := range cells {
		cells[i].Seed = xrand.DeriveSeed(cfg.Seed, hashLabel(cells[i].Scenario))
	}
	stats, err := scenario.Runner{Workers: cfg.Workers}.Run(ctx, cells)
	if err != nil {
		return nil, fmt.Errorf("experiment cell: %w", err)
	}
	return stats, nil
}

// measure runs the Monte-Carlo estimation of one labelled cell on its own,
// the treasure placed uniformly on the ring at D. It is the shared workhorse
// of the experiments.
func measure(ctx context.Context, cfg Config, cell scenario.Cell) (sim.TrialStats, error) {
	stats, err := runSweep(ctx, cfg, []scenario.Cell{cell})
	if err != nil {
		return sim.TrialStats{}, err
	}
	return stats[0], nil
}

// hashLabel derives a stable stream index from a cell label so that distinct
// cells of an experiment use independent randomness.
func hashLabel(label string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// log2 is a shorthand for the base-2 logarithm with a floor of 1 (so that
// normalisations by log k are defined at k = 1).
func log2Floor1(k int) float64 {
	l := math.Log2(float64(k))
	if l < 1 {
		return 1
	}
	return l
}

// polylog returns max(1, log2(k))^(1+eps), the normaliser for Theorem 3.3.
func polylog(k int, eps float64) float64 {
	return math.Pow(log2Floor1(k), 1+eps)
}

// geometricInts returns start, start·2, start·4, ... up to and including the
// largest value not exceeding limit.
func geometricInts(start, limit int) []int {
	var out []int
	for v := start; v <= limit; v *= 2 {
		out = append(out, v)
	}
	return out
}
