// Package sim contains the simulation engines that execute search algorithms
// on the grid and measure the quantity the paper is about: the time until the
// first of the k agents steps on the treasure.
//
// Two engines share the same semantics and the same loop. Each agent's
// searcher hands out its trajectory a sortie at a time (agent.Searcher's
// EmitSortie) into a per-agent segment buffer, and the loop steps through
// the buffered segments:
//
//   - the analytic engine (Run) answers "does this segment hit the treasure,
//     and when?" with the segments' closed-form queries, so a
//     multi-million-step spiral search costs O(1);
//   - the exact engine (RunExact) enumerates every cell an agent stands on
//     and reports each visit to a caller-supplied visitor, which the
//     coverage and overlap analyses need.
//
// Both engines replay exactly the same random decisions for a given seed, so
// they produce identical hit times; the equivalence is enforced by tests.
//
// The engines interleave the k agents by advancing, at every step, the agent
// with the smallest elapsed time (a min-heap keyed on elapsed time and agent
// index); the analytic engine lets an agent run ahead of that order only
// through segments that cannot reach the treasure. That keeps the total work
// near k times the answer: an agent is never simulated past the moment some
// other agent is already known to have found the treasure, and an individual
// agent that would never find the treasure on its own (a coordinated agent
// assigned the wrong sector, a one-shot searcher that missed) does not stall
// the run.
//
// Time accounting follows Section 2 of the paper: traversing one edge costs
// one unit, all agents start at the source at time zero and move
// synchronously, and the search completes when some agent first visits the
// treasure node.
package sim

import (
	"errors"
	"fmt"
	"math"

	"antsearch/internal/agent"
	"antsearch/internal/fault"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// DefaultMaxTime is the time cap applied when Options.MaxTime is zero. It is
// deliberately generous: the cap exists to keep accidental non-terminating
// configurations (for example a single random walker on the infinite grid)
// from hanging, not to truncate legitimate runs.
const DefaultMaxTime = 1 << 34

// Instance is one concrete search problem: an algorithm, the number of
// identical agents executing it, and the treasure location.
type Instance struct {
	// Algorithm is the common protocol all agents execute.
	Algorithm agent.Algorithm
	// NumAgents is k, the number of identical agents.
	NumAgents int
	// Treasure is the target node τ. It must differ from the source.
	Treasure grid.Point
	// Faults, when non-nil and non-zero, subjects the agents to the fault
	// model: each agent draws its fail-stop/fail-stall schedule from a
	// dedicated stream derived from (Options.Seed, xrand.PathFault, agent
	// index), so
	// a fault-free instance consumes no fault randomness and stays
	// bit-identical to runs that predate the fault model.
	Faults *fault.Plan
}

// Validate reports whether the instance is well formed.
func (in Instance) Validate() error {
	if in.Algorithm == nil {
		return errors.New("sim: instance has no algorithm")
	}
	if in.NumAgents < 1 {
		return fmt.Errorf("sim: need at least one agent, got %d", in.NumAgents)
	}
	if in.Treasure == grid.Origin {
		return errors.New("sim: treasure must not be placed on the source")
	}
	if in.Faults != nil {
		if err := in.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// faulty reports whether the instance carries an active fault plan.
func (in Instance) faulty() bool {
	return in.Faults != nil && !in.Faults.IsZero()
}

// noFault mirrors fault.None locally: the sentinel time of an event that
// never fires, larger than every reachable simulated time.
const noFault = fault.None

// Options control a single simulation run.
type Options struct {
	// Seed is the base seed; each agent's stream is derived from it and the
	// agent index, so runs are reproducible and agent-order independent.
	Seed uint64
	// MaxTime caps the simulated time. A run that has not found the treasure
	// by MaxTime stops and reports Capped. Zero means DefaultMaxTime.
	MaxTime int
}

// maxTime returns the effective cap.
func (o Options) maxTime() int {
	if o.MaxTime <= 0 {
		return DefaultMaxTime
	}
	return o.MaxTime
}

// Result reports the outcome of simulating one instance.
type Result struct {
	// Found is true if some agent visited the treasure before the cap.
	Found bool
	// Time is the first-hit time if Found, and the cap otherwise.
	Time int
	// Finder is the index of the agent that found the treasure first, or -1.
	// When several agents first reach it at Time, the finder is the one
	// whose hitting segment starts first, the smaller index among segments
	// that start together — not necessarily the smallest tied index
	// (DESIGN.md §7).
	Finder int
	// Capped is true if the treasure was not found before the cap.
	Capped bool
	// Survivors is k′, the number of agents whose fail-stop time lies
	// strictly after Time (an agent crashing exactly at Time performs no
	// action at that instant, so it does not survive). Fault-free runs report
	// NumAgents.
	Survivors int
	// Lower-bound reference values for convenience: the distance D of the
	// treasure and the trivial bound D + D²/k for this instance.
	Distance   int
	LowerBound float64
}

// CompetitiveRatio returns Time / (D + D²/k), the quantity the paper's
// competitiveness definition compares against. For capped runs it returns the
// ratio computed with the cap, which is a lower bound on the true ratio. A
// zero lower bound only arises on the degenerate D=0 instance (treasure on
// the source), which both engines and MonteCarlo reject; the ratio is
// undefined there and reported as NaN so that accidental aggregation surfaces
// loudly instead of silently dragging means toward zero.
func (r Result) CompetitiveRatio() float64 {
	if r.LowerBound == 0 {
		return math.NaN()
	}
	return float64(r.Time) / r.LowerBound
}

// SurvivorCompetitiveRatio returns Time / (D + D²/k′). Like CompetitiveRatio
// it is NaN on the degenerate D=0 instance; it is additionally NaN when no
// agent survived (the bound is +Inf and the ratio carries no information), so
// all-crashed capped trials drop out of ratio aggregates instead of dragging
// means toward zero.
func (r Result) SurvivorCompetitiveRatio() float64 {
	if r.Survivors < 1 || r.Distance == 0 {
		return math.NaN()
	}
	return float64(r.Time) / LowerBound(r.Distance, r.Survivors)
}

// LowerBound returns the trivial lower bound D + D²/k on the expected
// running time (Section 2 of the paper), and +Inf when k < 1.
func LowerBound(d, k int) float64 {
	if k < 1 {
		return math.Inf(1)
	}
	fd := float64(d)
	return fd + fd*fd/float64(k)
}

// ErrDiscontinuousTrajectory is returned when an algorithm emits a segment
// that does not start where the previous one ended. It always indicates a bug
// in the algorithm implementation, but the engines surface it as an error
// rather than panicking so that experiment sweeps fail cleanly.
var ErrDiscontinuousTrajectory = errors.New("sim: searcher emitted a discontinuous trajectory")

// agentState is the per-agent bookkeeping shared by both engines. States live
// in the engine's flat agents slice and embed their random stream by value,
// so resetting an agent between trials touches memory in place instead of
// allocating a generator, a state struct and a heap entry per agent.
type agentState struct {
	idx      int
	searcher agent.Searcher
	elapsed  int
	pos      grid.Point
	// zeroStreak counts consecutive segments that made no progress in time;
	// it guards the engine loop against algorithms that emit zero-duration
	// segments forever.
	zeroStreak int
	// segs[segNext:] are segments the searcher has batch-emitted but the
	// engine has not yet consumed. The storage persists across trials (reset
	// truncates, never frees), so steady-state refills write into warm
	// memory without allocating.
	segs    []trajectory.Seg
	segNext int
	// crashAt/stallAt/stallDur are the agent's fault schedule for this trial
	// (fault.Schedule flattened into the flat per-agent storage; noFault =
	// the event never fires). crashAt survives the crash itself — the
	// survivor count reads it after the loop. nextFaultAt caches
	// min(crashAt, stallAt) so the hot path gates all fault handling on one
	// comparison per segment.
	crashAt     int
	stallAt     int
	stallDur    int
	nextFaultAt int
	// stream is the agent's private randomness, derived from the run seed and
	// the agent index.
	stream xrand.Stream
}

// maxZeroStreak is the number of consecutive zero-duration segments an agent
// may emit before the engine declares the algorithm stuck. Legitimate
// schedules emit at most a handful of degenerate segments in a row.
const maxZeroStreak = 1 << 20

// ErrNoProgress is returned when an agent keeps emitting zero-duration
// segments without ever advancing simulated time.
var ErrNoProgress = errors.New("sim: searcher makes no progress (zero-duration segments)")

// discontinuityError builds the ErrDiscontinuousTrajectory report. It lives
// outside the hot functions that detect the condition (scanSeg, exactSeg)
// so their bodies stay fmt-free: formatting boxes every operand, and the
// hotpath analyzer holds the kernel to zero fmt usage.
func discontinuityError(seg trajectory.Seg, start, at grid.Point) error {
	return fmt.Errorf("%w: segment %v starts at %v, agent is at %v",
		ErrDiscontinuousTrajectory, seg, start, at)
}

// agentError attributes an engine-loop error to the agent that raised it,
// cold for the same reason as discontinuityError.
func agentError(idx int, err error) error {
	return fmt.Errorf("agent %d: %w", idx, err)
}

// engine is the reusable state of the simulation loop: flat per-agent
// storage, an index-based min-heap over it, and a scratch stream for treasure
// placement. A fresh engine is ready to use (the zero value); reset prepares
// it for a trial, reusing the agent and heap storage from the previous trial
// of the same shard, so a shard of any number of trials performs O(1)
// engine-level allocations in total. Engines are not safe for concurrent use;
// the Monte-Carlo fan-out gives each shard its own.
type engine struct {
	agents []agentState
	// heap orders the live agents by (elapsed, idx): the engines always
	// advance the agent that is furthest behind in simulated time and
	// tie-break deterministically. (elapsed, idx) is a strict total order, so
	// the sequence of advanced agents — and therefore every result — is
	// independent of the heap's internal layout.
	heap []heapKey
	// placeRNG is the per-trial treasure-placement stream, reused across a
	// shard's trials by runShard.
	placeRNG xrand.Stream
	// faultRNG is the scratch stream reset once per (trial, agent) to draw
	// fault schedules; it lives here so faulty trials, like fault-free ones,
	// allocate no generators.
	faultRNG xrand.Stream
}

// heapKey is one heap entry: the agent's elapsed time mirrored next to its
// index, so heap comparisons read the small contiguous heap array instead of
// chasing pointers into the much larger agentState structs. Only the top
// entry's elapsed can go stale (the engine loop advances only the top agent),
// and fixTop refreshes it before sifting.
type heapKey struct {
	elapsed int
	idx     int32
}

// keyLess is the heap order: (elapsed, idx) ascending.
func keyLess(a, b heapKey) bool {
	if a.elapsed != b.elapsed {
		return a.elapsed < b.elapsed
	}
	return a.idx < b.idx
}

// siftDown restores the heap property below position i.
func (e *engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && keyLess(e.heap[r], e.heap[l]) {
			m = r
		}
		if !keyLess(e.heap[m], e.heap[i]) {
			return
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

// popTop removes the minimum agent from the heap.
func (e *engine) popTop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// fixTop restores the heap property after the top agent's elapsed time grew
// to the given value.
func (e *engine) fixTop(elapsed int) {
	e.heap[0].elapsed = elapsed
	e.siftDown(0)
}

// reset prepares the engine for one trial: every agent back at the source at
// time zero with a freshly reseeded stream and a new searcher, and the heap
// over all agents. All agents start with equal elapsed time and the heap
// breaks ties by index, so the identity ordering is the correct initial heap.
// Each agent slot hands the searcher it held last to the algorithm's
// NewSearcher, which resets a searcher of its own type in place, so a whole
// shard of trials runs without a single engine-level allocation after the
// first trial.
func (e *engine) reset(in Instance, opts Options) {
	if cap(e.agents) < in.NumAgents {
		e.agents = make([]agentState, in.NumAgents)
		e.heap = make([]heapKey, in.NumAgents)
	}
	e.agents = e.agents[:in.NumAgents]
	e.heap = e.heap[:in.NumAgents]
	faulty := in.faulty()
	for a := range e.agents {
		st := &e.agents[a]
		st.idx = a
		st.elapsed = 0
		st.pos = grid.Origin
		st.zeroStreak = 0
		st.segs = st.segs[:0]
		st.segNext = 0
		st.crashAt = noFault
		st.stallAt = noFault
		st.stallDur = 0
		st.nextFaultAt = noFault
		if faulty {
			// A dedicated stream per (trial, agent): the agent-behaviour
			// stream below stays untouched, so a plan with zero effective
			// draws still changes nothing about the trajectory.
			e.faultRNG.Reset(opts.Seed, xrand.PathFault, uint64(a))
			sched := in.Faults.Draw(&e.faultRNG)
			st.crashAt = sched.CrashAt
			st.stallAt = sched.StallAt
			st.stallDur = sched.StallDur
			st.nextFaultAt = sched.CrashAt
			if sched.StallAt < st.nextFaultAt {
				st.nextFaultAt = sched.StallAt
			}
		}
		st.stream.Reset(opts.Seed, uint64(a))
		st.searcher = in.Algorithm.NewSearcher(st.searcher, &st.stream, a)
		e.heap[a] = heapKey{elapsed: 0, idx: int32(a)}
	}
}

// stepOutcome is what advancing one agent by one segment reports back to the
// engine loop.
type stepOutcome struct {
	// hit is the global hit time, or -1 if the segment did not reach the
	// treasure before the budget.
	hit int
	// finished is true if the agent performs no further action (it crashed);
	// the engine loop retires it. A searcher whose schedule is over is
	// retired by the loop's refill instead.
	finished bool
}

// Run simulates the instance with the analytic engine and returns the
// first-hit result.
func Run(in Instance, opts Options) (Result, error) {
	return runPooled(in, opts, nil)
}

// RunExact simulates the instance cell by cell. If visit is non-nil it is
// called for every (agent, time, position) pair the simulation touches —
// including the source at time zero for each agent — up to the first-hit
// time (or the cap). The visitor must not retain the values beyond the call.
// An instance that fails validation is rejected before any visit.
func RunExact(in Instance, opts Options, visit func(agentIdx, t int, p grid.Point)) (Result, error) {
	if visit == nil {
		// The engine enumerates cells exactly when it has a visitor.
		visit = func(int, int, grid.Point) {}
	}
	return runPooled(in, opts, visit)
}

// runPooled runs one instance on an engine from enginePool, so repeated Run
// and RunExact calls reuse warm agent slots, segment buffers and searchers
// the way runShard's trials do.
func runPooled(in Instance, opts Options, visit func(agentIdx, t int, p grid.Point)) (Result, error) {
	e := enginePool.Get().(*engine)
	defer enginePool.Put(e)
	return e.runLoop(in, opts, visit)
}

// initialResult seeds the Result for a run: capped at timeCap until some
// agent finds the treasure.
func initialResult(in Instance, timeCap int) Result {
	return Result{
		Finder:     -1,
		Time:       timeCap,
		Capped:     true,
		Distance:   in.Treasure.L1(),
		LowerBound: LowerBound(in.Treasure.L1(), in.NumAgents),
	}
}

// runLoop is the single engine loop behind both engines. With a nil visitor
// it is the analytic engine: each buffered segment is folded in with its
// closed-form queries (scanSeg). With a visitor it is the exact engine: each
// buffered segment is enumerated cell by cell (exactSeg), and every agent's
// presence at the source at time zero is reported first. Both read the same
// per-agent segment buffers, refilled by one EmitSortie dispatch per batch
// (refill), so the per-segment path makes no dynamic call. Three further
// properties keep the per-segment cost low:
//
//   - the analytic engine runs an agent through every segment that cannot
//     reach the treasure (trajectory.Seg.Reach below the treasure's distance)
//     without the hit query and without looking at the other agents: such a
//     segment reports no hit under any budget, and each agent draws only from
//     its own stream, so folding it early changes nothing but the agent's own
//     state. Only a segment that could hit waits until its agent precedes
//     every other live agent. The exact engine never skips: its visitor sees
//     every cell in the order the agents reach them. So only for a searcher
//     that breaks its contract can the engines differ: an agent running
//     ahead may meet a discontinuity or a zero-progress streak past the
//     answer time, which the exact engine never reaches;
//   - the inner loop keeps advancing the same agent while it still strictly
//     precedes every other live agent, skipping the heap sift exactly when it
//     would be a no-op and re-select the same agent anyway; the rest of the
//     heap is frozen during that inner loop, so the key the agent must stay
//     ahead of — the smaller of the top's at most two children, which bounds
//     the whole rest of the heap — is loop-invariant and hoisted out;
//   - the (elapsed, idx) strict total order makes both the precedence test
//     and the retire conditions exact, so the segments that could hit are
//     scanned in (segment start, agent index) order under the same budget as
//     in the historical one-segment-per-heap-round loops this replaces, and
//     every Result bit, Finder on ties included, is identical. A skipped
//     segment may be folded under a larger budget than those loops used,
//     which only postpones a saturation that retires the agent either way.
//
// The hotpath marker holds this body to no dynamic dispatch and no
// allocation.
//
//antlint:hotpath
func (e *engine) runLoop(in Instance, opts Options, visit func(agentIdx, t int, p grid.Point)) (Result, error) {
	if err := in.Validate(); err != nil { //antlint:allow hotpath validation runs once before the loop and allocates only when rejecting the input
		return Result{}, err
	}
	timeCap := opts.maxTime()
	res := initialResult(in, timeCap)

	e.reset(in, opts) //antlint:allow hotpath per-run setup, not per-step: the one NewSearcher dispatch per agent happens before the loop
	if visit != nil {
		// Every agent stands on the source at time zero, reported exactly
		// once, before any movement.
		for a := range e.agents {
			visit(a, 0, grid.Origin)
		}
	}
	best := timeCap
	for len(e.heap) > 0 {
		st := &e.agents[e.heap[0].idx]
		if st.elapsed >= best {
			// Every remaining agent is already past the best hit time (or
			// the cap); nothing can improve the answer.
			break
		}
		// (restElapsed, restIdx) is the smallest key among the other live
		// agents — the point up to which the top agent may keep advancing
		// without any heap operation. Those agents do not move while the top
		// advances, so the bound is loop-invariant: the smaller of the top's
		// at most two children bounds the whole rest of the heap. MaxInt
		// means there are no other agents.
		restElapsed, restIdx := math.MaxInt, int32(0)
		if n := len(e.heap); n > 1 {
			m := e.heap[1]
			if n > 2 && keyLess(e.heap[2], m) {
				m = e.heap[2]
			}
			restElapsed, restIdx = m.elapsed, m.idx
		}
		for {
			if st.segNext == len(st.segs) {
				more, err := st.refill()
				if err != nil {
					return Result{}, agentError(st.idx, err) //antlint:allow hotpath error exit aborts the run; the cold helper may allocate
				}
				if !more {
					e.popTop()
					break
				}
			}
			seg := st.segs[st.segNext]
			// Only a segment that could hit waits for its agent to precede
			// every other live agent.
			skip := visit == nil && seg.Reach() < res.Distance
			if !skip && (st.elapsed > restElapsed || (st.elapsed == restElapsed && int32(st.idx) > restIdx)) {
				e.fixTop(st.elapsed)
				break
			}
			st.segNext++
			var outcome stepOutcome
			var err error
			if visit == nil {
				outcome, err = st.scanSeg(seg, in.Treasure, best, skip)
			} else {
				outcome, err = st.exactSeg(seg, in.Treasure, best, visit) //antlint:allow hotpath exact engine only (a visitor is set): per-cell enumeration through a callback closure; Run never takes this branch
			}
			if err != nil {
				// Includes ErrNoProgress: the zero-streak guard lives in the
				// step leaves, which see segment durations for free.
				return Result{}, agentError(st.idx, err) //antlint:allow hotpath error exit aborts the run; the cold helper may allocate
			}
			if outcome.hit >= 0 {
				// Every leaf reports only hits strictly below the budget, so
				// this hit beats every earlier one.
				best = outcome.hit
				res.Found = true
				res.Capped = false
				res.Finder = st.idx
				res.Time = outcome.hit
			}
			if outcome.finished || outcome.hit >= 0 || st.elapsed >= best {
				e.popTop()
				break
			}
		}
	}
	res.Survivors = in.NumAgents
	if in.faulty() {
		// k′: agents whose crash lies strictly after the answer. Retiring an
		// agent early (elapsed >= best) never clears crashAt, so the count is
		// exact even for agents the engine stopped simulating before their
		// crash time.
		n := 0
		for a := range e.agents {
			if e.agents[a].crashAt > res.Time {
				n++
			}
		}
		res.Survivors = n
	}
	return res, nil
}

// refill replaces the agent's drained segment buffer with the searcher's next
// batch — the engine's one dynamic dispatch, paid per batch rather than per
// segment. It reports false when the schedule is over. A batch that reports
// ok without appending anything is a zero-progress step: it counts toward
// the same zero-streak guard as a zero-duration segment, so a persistent
// offender ends in ErrNoProgress instead of spinning the engine.
//
//antlint:hotpath
func (st *agentState) refill() (bool, error) {
	for {
		segs, ok := st.searcher.EmitSortie(st.segs[:0]) //antlint:allow hotpath one dispatch per batch by design
		st.segs, st.segNext = segs, 0
		if !ok {
			return false, nil
		}
		if len(segs) > 0 {
			return true, nil
		}
		st.zeroStreak++
		if st.zeroStreak > maxZeroStreak {
			return false, ErrNoProgress
		}
	}
}

// scanSeg folds one segment into the agent's state using the segment's
// closed-form queries, fused into a single kind dispatch (trajectory.Seg.Scan)
// so the step performs one switch per segment instead of four. The budget is
// exclusive: no times >= budget may be reported as hits. A segment the loop
// skips cannot reach the treasure (its Reach is below the treasure's
// distance), so it needs only its endpoints and duration, not the hit query;
// everything else — continuity, faults, the budget, the zero streak — is
// checked exactly as for a scanned one.
//
// The zero-streak guard lives here — the leaf that already knows the segment
// duration — rather than in the engine loop, which would have to save and
// compare elapsed around every step to detect the same condition. All other
// exits make progress (a hit, or elapsed strictly growing to the budget or by
// the duration), so only the zero-duration advance can extend a streak.
//
//antlint:hotpath
func (st *agentState) scanSeg(seg trajectory.Seg, treasure grid.Point, budget int, skip bool) (stepOutcome, error) {
	var start, end grid.Point
	var duration, off int
	var found bool
	if skip {
		start, end, duration = seg.Start(), seg.End(), seg.Duration()
	} else {
		start, end, duration, off, found = seg.Scan(treasure)
	}
	if start != st.pos {
		return stepOutcome{}, discontinuityError(seg, start, st.pos) //antlint:allow hotpath error exit aborts the run; the cold helper may allocate
	}
	if st.nextFaultAt-st.elapsed <= duration {
		// Some fault fires within this segment's time window (nextFaultAt >=
		// elapsed is an engine invariant, so the subtraction cannot wrap).
		// The cold fault interpreter takes over; the common fault-free case
		// costs exactly this one comparison.
		return st.applyFaults(end, duration, off, found, budget)
	}
	if found {
		st.zeroStreak = 0
		if t := st.elapsed + off; t < budget {
			return stepOutcome{hit: t}, nil
		}
		// The hit lies beyond the budget, so it can never become the answer;
		// park the agent at the budget so the engine retires it.
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	if duration > budget-st.elapsed {
		// The segment alone overshoots the budget; saturate rather than
		// overflow the elapsed counter. The engine loop only steps agents with
		// elapsed < budget, so this is strict progress.
		st.zeroStreak = 0
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	if duration == 0 {
		st.zeroStreak++
		if st.zeroStreak > maxZeroStreak {
			return stepOutcome{}, ErrNoProgress
		}
	} else {
		st.zeroStreak = 0
	}
	st.elapsed += duration
	st.pos = end
	return stepOutcome{hit: -1}, nil
}

// applyFaults folds one segment into the agent's state under its fault
// schedule. It is the cold continuation of scanSeg, entered only when a fault
// fires within the segment's window, so it can afford to interpret events one
// by one. Wall-clock semantics (DESIGN.md §10):
//
//   - a stall starting at wall time S freezes the agent in place for its
//     duration L: trajectory events at wall times >= S are shifted by L
//     (events strictly before S are unaffected; an arrival exactly at S is
//     delayed);
//   - a crash at wall time C means the agent performs no action at wall
//     times >= C — a treasure hit exactly at C does not count;
//   - a crash inside a stall window still fires at C: events are applied in
//     wall-clock order, crash winning ties.
//
// The interpreter tracks (wall, a): the wall-clock time corresponding to
// segment offset a, with everything in [0, a) already accounted for. Every
// exit makes strict progress (a hit, a crash retiring the agent, or elapsed
// growing — stalls last >= 1), so no exit extends a zero streak. On every
// non-retiring exit the pending events again lie strictly beyond elapsed,
// which is the invariant scanSeg's overflow-free gate relies on.
func (st *agentState) applyFaults(end grid.Point, duration, off int, found bool, budget int) (stepOutcome, error) {
	wall := st.elapsed
	a := 0
	for {
		evAt, crash := st.crashAt, true
		if st.stallAt < evAt {
			evAt, crash = st.stallAt, false
		}
		if evAt == noFault {
			break
		}
		// The segment offset at which the event fires. An event made past-due
		// by an earlier stall in this same call fires immediately.
		aEv := a
		if evAt > wall {
			aEv = a + (evAt - wall)
			if aEv > duration {
				// The event lies strictly beyond the segment (and therefore,
				// by aEv > duration, strictly beyond the new elapsed).
				break
			}
		}
		if found && off >= a && off < aEv {
			// The hit precedes the event on the wall clock.
			st.zeroStreak = 0
			return st.hitAt(wall+(off-a), budget), nil
		}
		if crash {
			t := evAt
			if t > budget {
				t = budget
			}
			st.zeroStreak = 0
			st.elapsed = t
			return stepOutcome{hit: -1, finished: true}, nil
		}
		// Stall: freeze from max(wall, evAt) for stallDur, consuming the
		// event. Saturate at the budget instead of overflowing — the agent is
		// then past every time that could still matter.
		startAt := evAt
		if wall > startAt {
			startAt = wall
		}
		st.stallAt = noFault
		st.nextFaultAt = st.crashAt
		if startAt >= budget || st.stallDur > budget-startAt {
			st.zeroStreak = 0
			st.elapsed = budget
			return stepOutcome{hit: -1}, nil
		}
		wall = startAt + st.stallDur
		a = aEv
	}
	if found {
		st.zeroStreak = 0
		return st.hitAt(wall+(off-a), budget), nil
	}
	segEnd := wall + (duration - a)
	st.zeroStreak = 0
	if segEnd >= budget {
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	st.elapsed = segEnd
	st.pos = end
	return stepOutcome{hit: -1}, nil
}

// hitAt reports a treasure hit at global time t, honoring the exclusive
// budget: a hit at or past the budget can never become the answer, so the
// agent is parked at the budget for the engine to retire.
func (st *agentState) hitAt(t, budget int) stepOutcome {
	if t < budget {
		return stepOutcome{hit: t}
	}
	st.elapsed = budget
	return stepOutcome{hit: -1}
}

// exactSeg folds one segment into the agent's state the exact engine's way,
// enumerating every cell it reaches before the budget, reporting each to the
// visitor, under the agent's fault schedule. Its wall-clock semantics are
// applyFaults': each cell arrival is shifted by the stalls that precede it
// (an arrival exactly at a stall start is delayed), and arrivals at or after
// the crash time never happen. With no fault pending in the segment's window
// every per-cell fault check falls through, the shift stays zero, and the
// step is the plain fault-free enumeration. The two engines may differ in
// *when* an agent's elapsed absorbs a pending stall (a zero-duration segment
// emits no arrivals here but consumes a due stall analytically), which can
// reorder heap scheduling between independent agents, but never in any
// agent's visit times or hit time — which is all Result is made of.
func (st *agentState) exactSeg(seg trajectory.Seg, treasure grid.Point, budget int,
	visit func(agentIdx, t int, p grid.Point)) (stepOutcome, error) {
	if seg.Start() != st.pos {
		return stepOutcome{}, discontinuityError(seg, seg.Start(), st.pos)
	}
	shift := 0
	hit := -1
	truncated := false
	crashed := false
	seg.ForEach(func(t int, p grid.Point) bool {
		if t == 0 {
			// The segment's start coincides in time with the previous
			// segment's end and was already visited/reported.
			return true
		}
		wall := st.elapsed + t + shift
		for {
			if st.crashAt <= st.stallAt {
				if wall >= st.crashAt {
					crashed = true
					return false
				}
				break
			}
			if wall >= st.stallAt {
				// The arrival is delayed by the stall; later arrivals inherit
				// the shift. Re-check from the top: the delay may push the
				// arrival past the crash time.
				shift += st.stallDur
				wall += st.stallDur
				st.stallAt = noFault
				st.nextFaultAt = st.crashAt
				continue
			}
			break
		}
		if wall >= budget {
			// The budget is exclusive, exactly as in the analytic engine:
			// only times strictly below it are simulated.
			truncated = true
			return false
		}
		visit(st.idx, wall, p)
		if p == treasure {
			hit = wall
			return false
		}
		return true
	})
	if crashed {
		t := st.crashAt
		if t > budget {
			t = budget
		}
		st.zeroStreak = 0
		st.elapsed = t
		return stepOutcome{hit: -1, finished: true}, nil
	}
	if hit >= 0 {
		st.zeroStreak = 0
		return stepOutcome{hit: hit}, nil
	}
	if truncated {
		st.zeroStreak = 0
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	if seg.Duration() == 0 && shift == 0 {
		// No arrivals and no stall absorbed: the zero-streak guard mirrors
		// scanSeg, where only a zero-duration segment leaves elapsed
		// unchanged.
		st.zeroStreak++
		if st.zeroStreak > maxZeroStreak {
			return stepOutcome{}, ErrNoProgress
		}
	} else {
		st.zeroStreak = 0
	}
	st.elapsed += seg.Duration() + shift
	st.pos = seg.End()
	return stepOutcome{hit: -1}, nil
}
