package agent

import (
	"strings"
	"testing"

	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// walkOut is a minimal test algorithm: every agent walks straight east
// forever in 1-step segments, one per batch.
type walkOut struct{}

func (walkOut) Name() string { return "walk-out" }

func (walkOut) NewSearcher(Searcher, *xrand.Stream, int) Searcher { return &walkOutSearcher{} }

type walkOutSearcher struct{ pos grid.Point }

func (s *walkOutSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	next := s.pos.Step(grid.East)
	buf = append(buf, trajectory.WalkSeg(s.pos, next))
	s.pos = next
	return buf, true
}

// nextSegment pulls the searcher's next batch and returns its first segment.
func nextSegment(s Searcher) (trajectory.Seg, bool) {
	segs, ok := s.EmitSortie(nil)
	if !ok || len(segs) == 0 {
		return trajectory.Seg{}, false
	}
	return segs[0], true
}

func TestNewDelayedValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewDelayed(nil, 5); err == nil {
		t.Error("nil inner algorithm should be rejected")
	}
	if _, err := NewDelayed(walkOut{}, -1); err == nil {
		t.Error("negative delay should be rejected")
	}
	d, err := NewDelayed(walkOut{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Name(), "walk-out") || !strings.Contains(d.Name(), "delayed") {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestDelayedPrependsPause(t *testing.T) {
	t.Parallel()

	d, err := NewDelayed(walkOut{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	sawPause, sawZeroDelay := false, false
	for seedIdx := 0; seedIdx < 30; seedIdx++ {
		s := d.NewSearcher(nil, xrand.NewStream(3, uint64(seedIdx)), 0)
		seg, ok := nextSegment(s)
		if !ok {
			t.Fatal("no first segment")
		}
		switch seg.Kind() {
		case trajectory.KindPause:
			sawPause = true
			if seg.Duration() < 1 || seg.Duration() > 20 {
				t.Errorf("pause duration %d outside [1, 20]", seg.Duration())
			}
			if seg.Start() != grid.Origin {
				t.Errorf("pause not at the source: %v", seg.Start())
			}
			// The inner schedule follows, contiguous with the pause.
			next, ok := nextSegment(s)
			if !ok || next.Start() != grid.Origin {
				t.Errorf("inner schedule does not start at the source after the pause")
			}
		case trajectory.KindWalk:
			// Delay drawn as zero: the inner schedule starts immediately.
			sawZeroDelay = true
		default:
			t.Fatalf("unexpected first segment kind %v", seg.Kind())
		}
	}
	if !sawPause {
		t.Error("no searcher received a positive delay in 30 draws")
	}
	_ = sawZeroDelay // zero delays are possible but not guaranteed in 30 draws

	// MaxDelay zero degenerates to the inner algorithm exactly.
	zero, err := NewDelayed(walkOut{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := nextSegment(zero.NewSearcher(nil, xrand.NewStream(1), 0))
	if !ok {
		t.Fatal("no segment")
	}
	if seg.Kind() == trajectory.KindPause {
		t.Error("MaxDelay = 0 should not emit a pause")
	}
}

func TestDelayedFactory(t *testing.T) {
	t.Parallel()

	if _, err := DelayedFactory(nil, 5); err == nil {
		t.Error("nil inner factory should be rejected")
	}
	if _, err := DelayedFactory(func(int) Algorithm { return walkOut{} }, -2); err == nil {
		t.Error("negative delay should be rejected")
	}

	inner := func(int) Algorithm { return walkOut{} }
	f, err := DelayedFactory(inner, 7)
	if err != nil {
		t.Fatal(err)
	}
	alg := f(4)
	if alg == nil {
		t.Fatal("factory returned nil")
	}
	if _, ok := alg.(*Delayed); !ok {
		t.Fatalf("factory returned %T, want *Delayed", alg)
	}

	nilInner, err := DelayedFactory(func(int) Algorithm { return nil }, 7)
	if err != nil {
		t.Fatal(err)
	}
	if nilInner(4) != nil {
		t.Error("a nil inner algorithm should propagate as nil")
	}
}
