package stats

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the tests do not depend on any
// seeding behaviour outside this package.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

func TestP2Validation(t *testing.T) {
	t.Parallel()

	for _, q := range []float64{-0.1, 0, 1, 1.5} {
		if _, err := newP2(q); err == nil {
			t.Errorf("newP2(%v) should fail", q)
		}
	}
	if _, err := newP2(0.5); err != nil {
		t.Fatal(err)
	}
}

func TestP2SmallStreamsAreExact(t *testing.T) {
	t.Parallel()

	p, err := newP2(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value() != 0 {
		t.Errorf("empty estimator value = %v, want 0", p.Value())
	}
	for _, x := range []float64{5, 1, 3} {
		p.Add(x)
	}
	if got := p.Value(); got != 3 {
		t.Errorf("median of {5,1,3} = %v, want 3", got)
	}
}

func TestP2ApproximatesQuantiles(t *testing.T) {
	t.Parallel()

	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		p, err := newP2(q)
		if err != nil {
			t.Fatal(err)
		}
		// Uniform [0, 1): the q-quantile is q itself.
		g := lcg(7)
		for i := 0; i < 50000; i++ {
			p.Add(g.next())
		}
		if got := p.Value(); math.Abs(got-q) > 0.02 {
			t.Errorf("P2(%v) over U[0,1) = %v, want within 0.02 of %v", q, got, q)
		}
	}
}

func TestSketchExactModeMatchesQuantile(t *testing.T) {
	t.Parallel()

	s := NewSketch(128)
	var data []float64
	g := lcg(3)
	for i := 0; i < 100; i++ {
		x := g.next() * 1000
		data = append(data, x)
		s.Add(x)
	}
	if s.est != nil {
		t.Fatal("100 observations with cap 128 should stay exact")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.77, 1} {
		if got, want := s.Summary().Quantile(q), Quantile(data, q); got != want {
			t.Errorf("Quantile(%v) = %v, want exact %v", q, got, want)
		}
	}
	sum := s.Summary()
	if sum.N != 100 || !sum.Exact {
		t.Errorf("summary N=%d exact=%v, want 100/true", sum.N, sum.Exact)
	}
}

func TestSketchEstimationModeAccuracy(t *testing.T) {
	t.Parallel()

	s := NewSketch(256)
	g := lcg(11)
	const n = 40000
	for i := 0; i < n; i++ {
		s.Add(g.next())
	}
	if s.est == nil {
		t.Fatal("sketch should have left exact mode")
	}
	if s.n != n {
		t.Fatalf("n = %d, want %d", s.n, n)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got := s.Summary().Quantile(q); math.Abs(got-q) > 0.03 {
			t.Errorf("estimated Quantile(%v) = %v, want within 0.03", q, got)
		}
	}
	// Min and max stay exact in estimation mode.
	sum := s.Summary()
	if sum.Min < 0 || sum.Min > 0.001 || sum.Max > 1 || sum.Max < 0.999 {
		t.Errorf("min/max = %v/%v, want near 0/1", sum.Min, sum.Max)
	}
}

func TestQuantileSummaryEmpty(t *testing.T) {
	t.Parallel()

	var sum QuantileSummary
	if sum.Quantile(0.5) != 0 || sum.Median() != 0 {
		t.Error("empty summary should answer 0")
	}
}
