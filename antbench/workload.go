package main

import (
	"encoding/json"
	"fmt"

	"antsearch/internal/scenario"
)

// Workload names, as BENCHMARK.json lists them.
const (
	coldCells = "cold-cells"
	tinyGrid  = "tiny-grid"
	hotReplay = "hot-replay"
	reproduce = "reproduce"
)

// pinnedProcs is the GOMAXPROCS of every antserve and antexperiments child
// and of the harness itself, so AutoSplit decisions and shard plans are the
// same on every host.
const pinnedProcs = 2

// workloadSpec fixes a workload's shape: how many closed-loop clients it runs
// and how many ops each client issues in a traced run (traced runs do fixed
// work so their counts repeat exactly).
type workloadSpec struct {
	clients  int
	traceOps int
}

var workloads = map[string]workloadSpec{
	coldCells: {clients: 1, traceOps: 10},
	tinyGrid:  {clients: 2, traceOps: 15},
	hotReplay: {clients: 2, traceOps: 50},
	reproduce: {clients: 1, traceOps: 1},
}

var (
	// coldScenarios span the engine's cost range: uniform costs about ten
	// times known-k per trial.
	coldScenarios = []string{"known-k", "uniform", "harmonic-restart", "known-k-faulty"}
	tinyScenarios = []string{"known-k", "uniform", "harmonic-restart", "known-k-faulty", "rho-approx"}
	tinyKs        = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	warmKs        = []int{1, 2, 4, 8}
)

// coldTrials is one trial past the planner's 1024-trial shard cap, so every
// cold cell folds two shards and persists a checkpoint between them. At
// D=coldD an op takes about 0.8 s on a two-vCPU Xeon, some 25 ops per
// 20-second window; at D=64 it took 2.5 s, too few ops for steady medians.
const (
	coldTrials = 1025
	coldD      = 16
)

// hotGrids is how many 1000-cell grids hot-replay stores and replays; with
// its 96-cell warm-up grid they fill the server's default 4096-entry cache
// exactly, so every replayed row is a hit.
const hotGrids = 4

// sweep is one /sweep request.
type sweep struct {
	grid     scenario.Grid
	progress bool
}

// sweepParams and sweepRequest mirror antserve's request wire form.
type sweepParams struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	Rho     float64 `json:"rho"`
	Mu      float64 `json:"mu"`
}

type sweepRequest struct {
	Scenarios []string    `json:"scenarios"`
	Params    sweepParams `json:"params"`
	Ks        []int       `json:"ks"`
	Ds        []int       `json:"ds"`
	Trials    int         `json:"trials"`
	Seed      uint64      `json:"seed"`
	Progress  bool        `json:"progress"`
}

// body encodes the request as antserve expects it. Every grid carries
// scenario.DefaultParams, which the request form covers field for field.
func (s sweep) body() []byte {
	p := s.grid.Params
	b, err := json.Marshal(sweepRequest{
		Scenarios: s.grid.Scenarios,
		Params:    sweepParams{Epsilon: p.Epsilon, Delta: p.Delta, Rho: p.Rho, Mu: p.Mu},
		Ks:        s.grid.Ks,
		Ds:        s.grid.Ds,
		Trials:    s.grid.Trials,
		Seed:      s.grid.Seed,
		Progress:  s.progress,
	})
	if err != nil {
		panic(fmt.Sprintf("encoding a sweep request: %v", err)) // plain structs always encode
	}
	return b
}

// workload generates every request of one benchmark run from the workload
// seed. Timed seeds are base + j·clients + c for client c's j-th op, so
// clients never share a seed; warm-up seeds count down from base − 1, outside
// the timed set.
type workload struct {
	name string
	spec workloadSpec
	seed uint64
	base uint64
}

func newWorkload(name string, seed uint64) (*workload, error) {
	spec, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s, %s, %s or %s)", name, coldCells, tinyGrid, hotReplay, reproduce)
	}
	return &workload{name: name, spec: spec, seed: seed, base: (seed%(1<<32))<<20 | 1<<19}, nil
}

func (w *workload) opSeed(client, j int) uint64 {
	return w.base + uint64(j)*uint64(w.spec.clients) + uint64(client)
}

func (w *workload) warmSeed(i int) uint64 { return w.base - 1 - uint64(i) }

func intRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func coldGrid(seed uint64, d int) sweep {
	return sweep{grid: scenario.Grid{
		Scenarios: coldScenarios, Params: scenario.DefaultParams(),
		Ks: []int{4, 16}, Ds: []int{d}, Trials: coldTrials, Seed: seed,
	}, progress: true}
}

// tinyOf is the 1000-cell grid of one-trial cells: 5 scenarios × 10 ks × D 4–23.
func tinyOf(seed uint64) sweep {
	return sweep{grid: scenario.Grid{
		Scenarios: tinyScenarios, Params: scenario.DefaultParams(),
		Ks: tinyKs, Ds: intRange(4, 23), Trials: 1, Seed: seed,
	}}
}

// warmTiny is the 96-cell warm-up grid of the one-trial workloads.
func warmTiny(seed uint64) sweep {
	return sweep{grid: scenario.Grid{
		Scenarios: coldScenarios, Params: scenario.DefaultParams(),
		Ks: warmKs, Ds: intRange(4, 9), Trials: 1, Seed: seed,
	}}
}

// fillSweeps are the grids hot-replay stores before any timing: the
// replayed grids followed by the warm-up grid.
func (w *workload) fillSweeps() []sweep {
	if w.name != hotReplay {
		return nil
	}
	out := make([]sweep, 0, hotGrids+1)
	for g := 0; g < hotGrids; g++ {
		out = append(out, tinyOf(w.base+uint64(g)))
	}
	return append(out, w.warmSweep())
}

// warmSweep is the op every boot runs before it counts as set up. Cold-cells
// warms the same code paths (two shards, a checkpoint, progress rows) at
// D=16, a quarter of the work; hot-replay replays its stored warm-up grid.
func (w *workload) warmSweep() sweep {
	switch w.name {
	case coldCells:
		return coldGrid(w.warmSeed(0), coldD/2)
	case tinyGrid:
		return tinyOf(w.warmSeed(0))
	default:
		return warmTiny(w.warmSeed(0))
	}
}

// opSweep is client c's j-th timed request.
func (w *workload) opSweep(c, j int) sweep {
	switch w.name {
	case coldCells:
		return coldGrid(w.opSeed(c, j), coldD)
	case tinyGrid:
		return tinyOf(w.opSeed(c, j))
	default:
		g := splitmix64(w.seed^splitmix64(uint64(c)<<32|uint64(j))) % hotGrids
		return tinyOf(w.base + g)
	}
}

// wantCached is the "cached" flag every result row of a timed op must carry.
func (w *workload) wantCached() bool { return w.name == hotReplay }

// splitmix64 is the SplitMix64 finalizer, used to derive replay orders.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
