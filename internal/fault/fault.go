// Package fault models agent failures for the robustness experiments: the
// paper's central claim is that its search algorithms tolerate asynchrony and
// crashes — with k agents of which only k′ survive, the search time degrades
// gracefully toward the Ω(D + D²/k′) lower bound instead of collapsing. This
// package turns that claim into something the engine can execute: a Plan
// describes a random fault model, and Draw materialises it, per trial and per
// agent, into a concrete Schedule: a crash time, a stall time and a stall
// duration.
//
// Two failure kinds are modelled, both standard in the distributed-computing
// literature the paper sits in:
//
//   - fail-stop: the agent crashes at a wall-clock time and performs no
//     action from that instant on (a visit scheduled exactly at the crash
//     time does not happen);
//   - fail-stall: the agent freezes in place at a wall-clock time for a
//     bounded duration and then resumes its schedule, shifted — the discrete
//     analogue of the paper's asynchrony.
//
// Determinism contract: Draw consumes randomness only from the stream it is
// handed. The engines derive that stream from (trial seed, fault tag, agent
// index) — a dedicated xrand path disjoint from the agent-behaviour and
// treasure-placement streams — so a faulty trial's outcome is a pure function
// of (configuration, seed, trial), independent of worker count and
// scheduling, and a fault-free run consumes no fault randomness at all.
package fault

import (
	"errors"
	"fmt"
	"math"

	"antsearch/internal/xrand"
)

// None is the sentinel time of an event that never happens. It compares
// greater than every reachable simulation time, so engines can gate their
// fault handling on a single integer comparison.
const None = math.MaxInt

// maxDuration bounds every user-supplied time knob. It is far beyond any
// realistic simulation horizon (the engine's default cap is 2^34) and exists
// only so wall-clock arithmetic in the engines cannot overflow int64 however
// hostile the request.
const maxDuration = 1 << 48

// Schedule is one agent's materialised faults for one trial: at most one
// crash and at most one stall, with None marking an absent event. A crash
// that precedes a stall simply makes the stall unreachable; the engines apply
// events in wall-clock order.
type Schedule struct {
	// CrashAt is the fail-stop time (None = the agent never crashes).
	CrashAt int
	// StallAt is the fail-stall time (None = the agent never stalls), and
	// StallDur its duration (>= 1 when StallAt is set).
	StallAt  int
	StallDur int
}

// NoFaults is the schedule of a perfectly reliable agent.
func NoFaults() Schedule { return Schedule{CrashAt: None, StallAt: None} }

// Plan is a random fault model: each agent independently draws at most one
// crash and at most one stall. The zero Plan is the fault-free model (both
// probabilities zero); IsZero reports it, and engines treat a nil *Plan the
// same way.
type Plan struct {
	// CrashProb is the per-agent probability of a fail-stop crash, in [0, 1].
	CrashProb float64
	// CrashBy bounds the crash times: they are uniform in [0, CrashBy). Must
	// be >= 1 when CrashProb > 0.
	CrashBy int
	// StallProb is the per-agent probability of one fail-stall pause, in
	// [0, 1].
	StallProb float64
	// StallBy bounds the stall start times: uniform in [0, StallBy). Must be
	// >= 1 when StallProb > 0.
	StallBy int
	// StallDur bounds the stall durations: uniform in [1, StallDur]. Must be
	// >= 1 when StallProb > 0.
	StallDur int
}

// IsZero reports whether the plan is the fault-free model.
func (p Plan) IsZero() bool { return p == Plan{} }

// Validate reports whether the plan is well formed.
func (p Plan) Validate() error {
	if p.CrashProb < 0 || p.CrashProb > 1 || math.IsNaN(p.CrashProb) {
		return fmt.Errorf("fault: CrashProb must be in [0, 1], got %v", p.CrashProb)
	}
	if p.StallProb < 0 || p.StallProb > 1 || math.IsNaN(p.StallProb) {
		return fmt.Errorf("fault: StallProb must be in [0, 1], got %v", p.StallProb)
	}
	if p.CrashBy < 0 || p.StallBy < 0 || p.StallDur < 0 {
		return errors.New("fault: time knobs must be non-negative")
	}
	if p.CrashBy > maxDuration || p.StallBy > maxDuration || p.StallDur > maxDuration {
		return fmt.Errorf("fault: time knobs must be at most %d", maxDuration)
	}
	if p.CrashProb > 0 && p.CrashBy < 1 {
		return fmt.Errorf("fault: CrashProb %v needs CrashBy >= 1 (crash times are uniform in [0, CrashBy))", p.CrashProb)
	}
	if p.StallProb > 0 {
		if p.StallBy < 1 {
			return fmt.Errorf("fault: StallProb %v needs StallBy >= 1 (stall starts are uniform in [0, StallBy))", p.StallProb)
		}
		if p.StallDur < 1 {
			return fmt.Errorf("fault: StallProb %v needs StallDur >= 1 (stall durations are uniform in [1, StallDur])", p.StallProb)
		}
	}
	return nil
}

// Draw materialises the plan into one agent's schedule for one trial,
// consuming randomness only from rng. The draw order — crash Bernoulli, crash
// time, stall Bernoulli, stall start, stall duration — is part of the
// determinism contract: changing it changes every faulty golden.
func (p Plan) Draw(rng *xrand.Stream) Schedule {
	s := NoFaults()
	if rng.Bernoulli(p.CrashProb) {
		s.CrashAt = rng.IntN(p.CrashBy)
	}
	if rng.Bernoulli(p.StallProb) {
		s.StallAt = rng.IntN(p.StallBy)
		s.StallDur = 1 + rng.IntN(p.StallDur)
	}
	return s
}

// String renders the plan compactly. It doubles as the plan's identity in
// cache keys, so two plans render identically exactly when they draw
// identical schedules from identical streams.
func (p Plan) String() string {
	if p.IsZero() {
		return "none"
	}
	return fmt.Sprintf("crash(p=%v,by=%d)+stall(p=%v,by=%d,dur=%d)",
		p.CrashProb, p.CrashBy, p.StallProb, p.StallBy, p.StallDur)
}
