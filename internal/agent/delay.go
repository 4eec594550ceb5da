package agent

import (
	"fmt"

	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// Delayed wraps another algorithm so that every agent waits a random delay,
// drawn uniformly from {0, ..., MaxDelay}, before starting its schedule.
//
// The paper assumes all agents start simultaneously and remarks (Section 2)
// that the assumption can be removed by counting time from the moment the
// last agent starts. Delayed is that relaxation made concrete: it models a
// colony whose foragers leave the nest one by one. Because the wrapped
// algorithm never learns its delay, uniform algorithms stay uniform, and all
// of the paper's upper bounds degrade by at most an additive MaxDelay.
type Delayed struct {
	// Inner is the algorithm each agent runs after its delay.
	Inner Algorithm
	// MaxDelay is the largest possible start delay, in time units.
	MaxDelay int
}

// NewDelayed returns the asynchronous-start wrapper around inner.
func NewDelayed(inner Algorithm, maxDelay int) (*Delayed, error) {
	if inner == nil {
		return nil, fmt.Errorf("agent: delayed wrapper needs an inner algorithm")
	}
	if maxDelay < 0 {
		return nil, fmt.Errorf("agent: max delay must be non-negative, got %d", maxDelay)
	}
	return &Delayed{Inner: inner, MaxDelay: maxDelay}, nil
}

var _ Algorithm = (*Delayed)(nil)

// Name implements Algorithm.
func (d *Delayed) Name() string {
	return fmt.Sprintf("delayed(%s,max=%d)", d.Inner.Name(), d.MaxDelay)
}

// delayedSearcher prepends a single pause to an inner searcher's schedule.
type delayedSearcher struct {
	inner        Searcher
	delay        int
	emittedPause bool
}

// EmitSortie implements Searcher: the initial pause as its own batch, then
// the inner searcher's batches.
func (s *delayedSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	if !s.emittedPause {
		s.emittedPause = true
		if s.delay > 0 {
			return append(buf, trajectory.PauseSeg(grid.Origin, s.delay)), true
		}
	}
	return s.inner.EmitSortie(buf)
}

// NewSearcher implements Algorithm. The delay consumes randomness from the
// same per-agent stream as the inner algorithm, drawn before the inner
// searcher is built, so runs remain reproducible. A reused wrapper hands its
// inner searcher on to the inner algorithm for the same treatment.
func (d *Delayed) NewSearcher(prev Searcher, rng *xrand.Stream, agentIndex int) Searcher {
	delay := 0
	if d.MaxDelay > 0 {
		delay = rng.IntN(d.MaxDelay + 1)
	}
	var prevInner Searcher
	if p, ok := prev.(*delayedSearcher); ok {
		prevInner = p.inner
	}
	inner := d.Inner.NewSearcher(prevInner, rng, agentIndex)
	return ReuseOrNew(prev, delayedSearcher{inner: inner, delay: delay})
}

// DelayedFactory wraps a factory so that every produced algorithm starts its
// agents asynchronously with delays up to maxDelay.
func DelayedFactory(inner Factory, maxDelay int) (Factory, error) {
	if inner == nil {
		return nil, fmt.Errorf("agent: delayed factory needs an inner factory")
	}
	if maxDelay < 0 {
		return nil, fmt.Errorf("agent: max delay must be non-negative, got %d", maxDelay)
	}
	return func(k int) Algorithm {
		alg := inner(k)
		if alg == nil {
			return nil
		}
		return &Delayed{Inner: alg, MaxDelay: maxDelay}
	}, nil
}
