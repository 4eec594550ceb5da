package scenario

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"antsearch/internal/agent"
	"antsearch/internal/fault"
	"antsearch/internal/parallel"
	"antsearch/internal/sim"
)

// Cell is one fully resolved configuration of a sweep: a named strategy with
// its advice-model factory, an instance size (k, D), a trial budget and the
// seed its trials derive their randomness from.
type Cell struct {
	// Scenario is the name the cell is reported under in tables.
	Scenario string
	// Factory is the advice-model factory executed by the trials.
	Factory agent.Factory
	// K is the number of agents; D the treasure distance: every trial places
	// the treasure uniformly on the ring at distance D.
	K, D int
	// Trials is the number of Monte-Carlo trials.
	Trials int
	// MaxTime caps each trial (0 = engine default).
	MaxTime int
	// Seed is the base seed for this cell; per-trial streams derive from it.
	Seed uint64
	// Faults, when non-nil, applies the fault model to every trial of the
	// cell (grid expansion resolves it from explicit Params knobs or the
	// scenario's registered default).
	Faults *fault.Plan
}

// Runner executes sweep cells through the streaming Monte-Carlo engine:
// every cell's trials are partitioned into deterministic shards, fanned out
// over workers and folded into one streaming accumulator in trial order.
// Memory per cell is bounded by the sketch cap, never by the trial budget.
type Runner struct {
	// Workers is the core budget (0 = GOMAXPROCS). Run splits it between
	// concurrent cells and each cell's trial fan-out, cells first (see
	// splitCellsFirst); RunOne fans its cell's trials over at most Workers
	// goroutines. Any value is safe for correctness: per-trial randomness
	// derives from (seed, trial) and results are written index-for-index, so
	// the output is identical whatever the budget (pinned by the runner
	// parity test).
	Workers int
	// Progress, when non-nil, receives intra-cell progress updates as each
	// cell's ordered fold advances (see sim.TrialConfig.Progress). Run may
	// compute cells concurrently, so the callback must be safe for
	// concurrent use; updates for one cell never race each other.
	Progress func(Cell, sim.Progress)
	// ProgressEvery is the shard stride between updates (sim's semantics:
	// 0 or negative = automatic ~1% stride).
	ProgressEvery int
	// Checkpointer, when non-nil, supplies the per-cell checkpoint sink that
	// makes mega-cells resumable (typically cache.CheckpointStore.ForCell
	// composed with the cell's CellKey). Returning nil for a cell disables
	// checkpointing for it.
	Checkpointer func(Cell) sim.Checkpointer
	// CheckpointEvery is the shard interval between persisted checkpoints
	// (0 = sim.DefaultCheckpointEvery).
	CheckpointEvery int
}

// AutoSplit divides a core budget (0 or negative = GOMAXPROCS) between
// cross-cell and intra-cell parallelism for a stream that writes its cells in
// order through parallel.ReduceOrdered with a window of cellWorkers cells, as
// antserve's /sweep does: cell i starts only once cell i-cellWorkers has been
// streamed, so a cell that finishes behind a slower one holds its core idle
// until the slower one lands. The two layers multiply — cellWorkers cells in
// flight, each fanning trials over trialWorkers goroutines — so the product
// stays within the budget. When every cell holds at least cores ×
// sim.MinShardTrials trials, each cell's trials fill every core with a shard,
// so the grid runs one cell at a time on all cores (1, cores): the shards of
// one cell are identically distributed and finish together, while a window of
// unlike cells idles the cores its fast cells release. Any other grid gets
// the cells-first split Runner.Run uses (see splitCellsFirst), so a grid of
// one-trial cells still computes cores cells at a time.
func AutoSplit(cells []Cell, cores int) (cellWorkers, trialWorkers int) {
	cores = coreBudget(cores)
	shortOfShards := func(c Cell) bool { return c.Trials/sim.MinShardTrials < cores }
	if len(cells) == 0 || slices.ContainsFunc(cells, shortOfShards) {
		return splitCellsFirst(cells, cores)
	}
	return 1, cores
}

// splitCellsFirst is Runner.Run's split of a core budget (0 or negative =
// GOMAXPROCS). Cells are the coarser, lower-overhead unit of work, so they
// get the cores first (many small cells → cellWorkers = cores, sequential
// trials); only when there are fewer cells than cores does the remainder go
// to trial-level fan-out (few big cells → trialWorkers = cores/cells),
// capped by the largest trial budget, which bounds the useful trial
// parallelism. Run streams nothing, so no cell waits for an earlier one —
// parallel.Map hands the next cell to whichever worker frees first — and
// cells-first keeps its cores busy.
func splitCellsFirst(cells []Cell, cores int) (cellWorkers, trialWorkers int) {
	cores = coreBudget(cores)
	if len(cells) == 0 {
		return 1, 1
	}
	cellWorkers = min(cores, len(cells))
	maxTrials := 1
	for _, c := range cells {
		maxTrials = max(maxTrials, c.Trials)
	}
	return cellWorkers, max(min(cores/cellWorkers, maxTrials), 1)
}

// coreBudget resolves a core budget: 0 or negative means GOMAXPROCS.
func coreBudget(cores int) int {
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	return max(cores, 1)
}

// RunOne executes a single cell and returns its aggregated statistics.
func (r Runner) RunOne(ctx context.Context, cell Cell) (sim.TrialStats, error) {
	cfg := sim.TrialConfig{
		Factory:   cell.Factory,
		NumAgents: cell.K,
		Distance:  cell.D,
		Trials:    cell.Trials,
		Seed:      cell.Seed,
		MaxTime:   cell.MaxTime,
		Workers:   r.Workers,
		Faults:    cell.Faults,
	}
	if r.Progress != nil {
		cfg.Progress = func(p sim.Progress) { r.Progress(cell, p) }
		cfg.ProgressEvery = r.ProgressEvery
	}
	if r.Checkpointer != nil {
		cfg.Checkpointer = r.Checkpointer(cell)
		cfg.CheckpointEvery = r.CheckpointEvery
	}
	st, err := sim.MonteCarlo(ctx, cfg)
	if err != nil {
		return sim.TrialStats{}, fmt.Errorf("scenario: cell %s k=%d D=%d: %w",
			cell.Scenario, cell.K, cell.D, err)
	}
	return st, nil
}

// Run executes the cells and returns their statistics, index for index.
// splitCellsFirst divides the Workers budget between cells computed
// concurrently and the trial fan-out inside each: Run returns nothing until
// every cell is done, so no cell waits for an earlier one to be streamed, and
// it keeps the cells-first split rather than AutoSplit's one-cell-at-a-time
// regime. Every cell's statistics are a pure function of its own
// configuration and seed, so the results are identical — bit for bit —
// across all Workers values; only wall-clock time and error selection under
// multiple failures differ.
func (r Runner) Run(ctx context.Context, cells []Cell) ([]sim.TrialStats, error) {
	cellWorkers, trialWorkers := splitCellsFirst(cells, r.Workers)
	r.Workers = trialWorkers
	return parallel.Map(ctx, len(cells), cellWorkers, func(i int) (sim.TrialStats, error) {
		return r.RunOne(ctx, cells[i])
	})
}

// Grid describes a (scenario × D × k) sweep in terms of registry names and
// ranges; Cells expands it into the runner's cell list, resolving every
// factory through the registry. Its JSON form is the body of antserve's
// /sweep request.
//
//antlint:wire
type Grid struct {
	// Scenarios are registry names, swept in the given order.
	Scenarios []string `json:"scenarios"`
	// Params parameterises the scenarios. A zero Params.D is filled in per
	// cell with the cell's D (how known-d learns its distance).
	Params Params `json:"params"`
	// Ks and Ds are the agent counts and treasure distances. Empty ranges
	// fall back to each scenario's registered defaults.
	Ks []int `json:"ks"`
	Ds []int `json:"ds"`
	// Trials is the per-cell trial budget (0 = the scenario's default).
	Trials int `json:"trials"`
	// MaxTime caps each trial (0 = engine default).
	MaxTime int `json:"max_time"`
	// Seed seeds every cell. All cells share it — per-trial streams already
	// derive from (seed, trial), and a shared seed keeps a sweep's cells
	// comparable under common random numbers.
	Seed uint64 `json:"seed"`
}

// axes returns the k and D ranges the grid sweeps for scn: its own, or the
// scenario's registered defaults where its own are empty.
func (g Grid) axes(scn Scenario) (ks, ds []int) {
	ks, ds = g.Ks, g.Ds
	if len(ks) == 0 {
		ks = scn.Ks
	}
	if len(ds) == 0 {
		ds = scn.Ds
	}
	return ks, ds
}

// Size returns the number of cells Cells expands the grid into, applying the
// same defaults but building no cell, so a caller can refuse an oversized
// grid before paying for it. It fails only on an unknown scenario name.
func (g Grid) Size() (int, error) {
	n := 0
	for _, name := range g.Scenarios {
		scn, ok := Get(name)
		if !ok {
			return 0, fmt.Errorf("scenario: unknown scenario %q", name)
		}
		ks, ds := g.axes(scn)
		n += len(ks) * len(ds)
	}
	return n, nil
}

// Cells expands the grid, scenario-major, then by D, then by k (the
// traditional sweep-table row order).
func (g Grid) Cells() ([]Cell, error) {
	size, err := g.Size()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, size)
	for _, name := range g.Scenarios {
		scn, _ := Get(name)
		ks, ds := g.axes(scn)
		trials := g.Trials
		if trials == 0 {
			trials = scn.Trials
		}
		if len(ks) == 0 || len(ds) == 0 || trials < 1 {
			return nil, fmt.Errorf("scenario: %q has no usable k/D/trials ranges", name)
		}
		// Validate range values here, at expansion time, so detectably
		// invalid grids fail up front (e.g. an HTTP 400 from antserve)
		// instead of mid-sweep from deep inside the engine.
		for _, k := range ks {
			if k < 1 {
				return nil, fmt.Errorf("scenario: %q: k values must be >= 1, got %d", name, k)
			}
		}
		for _, d := range ds {
			if d < 1 {
				return nil, fmt.Errorf("scenario: %q: D values must be >= 1, got %d", name, d)
			}
		}
		if g.MaxTime < 0 {
			return nil, fmt.Errorf("scenario: %q: MaxTime must be >= 0 (0 = engine default), got %d", name, g.MaxTime)
		}
		// Explicit Params fault knobs take precedence; otherwise the
		// scenario's registered default plan (how the -faulty variants carry
		// their model) applies. Validated here at expansion time like the
		// ranges above, so a bad plan fails the request, not the sweep.
		faults := g.Params.FaultPlan()
		if faults == nil {
			faults = scn.Faults
		}
		if faults != nil {
			if err := faults.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: %q: %w", name, err)
			}
		}
		if g.Params.D != 0 && len(ds) > 1 {
			// An explicit Params.D pins every factory to one advice distance
			// while the cells would be reported under the swept D — a silent
			// advice/instance mismatch. A single swept D with an explicit
			// (possibly different) Params.D stays legal: that is the
			// deliberate "wrong advice" experiment.
			return nil, fmt.Errorf(
				"scenario: %q: explicit Params.D=%d conflicts with sweeping %d distances %v; "+
					"leave Params.D zero to parameterise each cell with its own D",
				name, g.Params.D, len(ds), ds)
		}
		for _, d := range ds {
			p := g.Params
			if p.D == 0 {
				p.D = d
			}
			factory, err := scn.Build(p)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: %w", name, err)
			}
			for _, k := range ks {
				cells = append(cells, Cell{
					Scenario: name,
					Factory:  factory,
					K:        k,
					D:        d,
					Trials:   trials,
					MaxTime:  g.MaxTime,
					Seed:     g.Seed,
					Faults:   faults,
				})
			}
		}
	}
	return cells, nil
}
