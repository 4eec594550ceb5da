// Package agent defines the abstractions shared by every search algorithm in
// this repository: the Searcher (the behaviour of one agent, expressed as a
// lazy stream of trajectory segments emitted a sortie at a time), the
// Algorithm (a recipe that equips each of the k identical agents with a
// Searcher, building a fresh one or resetting one the caller held before),
// and the Factory (how an experiment hands an algorithm the advice it is
// entitled to — the exact number of agents, an approximation of it, or
// nothing at all for uniform algorithms).
//
// The separation mirrors the paper's model (Section 2): agents are identical
// probabilistic machines that cannot communicate; the only thing that may
// differ between the settings studied is the advice about k given to every
// agent before the search starts.
package agent

import (
	"fmt"

	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// Searcher is the behaviour of a single agent: a lazy, possibly infinite
// sequence of contiguous trajectory segments starting at the source node,
// handed out a batch at a time.
//
// EmitSortie appends the next run of segments — typically one sortie (walk
// out, spiral, walk back), the unit every algorithm here is built from — to
// the caller-owned buffer and returns the extended slice. The first segment
// must start at the source; every further segment must start where the
// previous one ended. When ok is true at least one segment must be appended
// (the engine counts an empty batch as a zero-progress step and eventually
// errors); ok == false means the schedule is over (for instance the one-shot
// harmonic algorithm of Section 5 after its single sortie). Batches should
// stay modest: segments the engine never scans, because the trial ended
// first, are wasted work.
//
// Batching is what keeps the engines' per-segment loop free of dynamic
// dispatch: they pay one interface call per batch and scan the buffer of
// concrete trajectory.Seg values directly, so a segment costs neither an
// allocation to box nor an indirect call to query. How a schedule is cut
// into batches is unobservable in every engine result.
type Searcher interface {
	EmitSortie(buf []trajectory.Seg) (segs []trajectory.Seg, ok bool)
}

// Algorithm equips each of the identical agents with a Searcher. An algorithm
// carries its advice about k (if any) in its own fields — it receives only a
// random stream and the agent's index, never the true number of agents, so
// the type system keeps uniform algorithms honest.
type Algorithm interface {
	// Name returns a short, stable identifier used in tables and traces.
	Name() string
	// NewSearcher returns the behaviour of the agent with the given index.
	// All agents execute the same protocol; the index exists only so that
	// deterministic baselines (which the paper contrasts with the identical-
	// agent setting) can be expressed in the same framework.
	//
	// prev is nil or any searcher the caller held earlier, from this or any
	// other algorithm. When it has this algorithm's searcher type it is reset
	// in place and returned (ReuseOrNew), which lets the engines run whole
	// shards of trials without allocating searchers; anything else means
	// allocate. Either way the result must not depend on prev: it consumes
	// the same randomness and emits the same schedule as a fresh searcher.
	NewSearcher(prev Searcher, rng *xrand.Stream, agentIndex int) Searcher
}

// ReuseOrNew is the canonical NewSearcher body for struct searchers: when
// prev is a *T it overwrites the whole struct with fresh and returns it,
// otherwise it allocates. Overwriting the entire value (never individual
// fields) is what makes reuse safe — no field of a prior trial can survive
// into the next one.
func ReuseOrNew[T any, PT interface {
	*T
	Searcher
}](prev Searcher, fresh T) Searcher {
	if p, ok := prev.(PT); ok {
		*p = fresh
		return p
	}
	p := PT(new(T))
	*p = fresh
	return p
}

// Factory builds an algorithm for a search instance with k agents. It is the
// experiment harness's way of modelling advice:
//
//   - a non-uniform factory passes k (or an approximation of it) to the
//     algorithm it returns;
//   - a uniform factory ignores its argument entirely, so the algorithm it
//     returns cannot depend on k.
type Factory func(k int) Algorithm

// Validate checks basic sanity of an algorithm construction parameter and is
// shared by the concrete algorithm constructors.
func Validate(name string, value int, minimum int) error {
	if value < minimum {
		return fmt.Errorf("agent: %s must be at least %d, got %d", name, minimum, value)
	}
	return nil
}
