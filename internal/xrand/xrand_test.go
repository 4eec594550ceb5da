package xrand

import (
	"math"
	"testing"

	"antsearch/internal/grid"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	t.Parallel()

	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Error("DeriveSeed is not deterministic")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed should depend on path order")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Error("DeriveSeed should depend on the base seed")
	}
	if DeriveSeed(1, 0) == DeriveSeed(1) {
		t.Error("DeriveSeed should distinguish an empty path from path {0}")
	}
}

func TestStreamReproducible(t *testing.T) {
	t.Parallel()

	a := NewStream(99, 1, 2)
	b := NewStream(99, 1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}

	c := NewStream(99, 1, 3)
	same := 0
	d := NewStream(99, 1, 2)
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different paths agree on %d/100 outputs", same)
	}
}

func TestIntNRange(t *testing.T) {
	t.Parallel()

	s := NewStream(7)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := s.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN(5) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("value %d drawn %d times out of 5000; far from uniform", v, c)
		}
	}
}

func TestBernoulli(t *testing.T) {
	t.Parallel()

	s := NewStream(11)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if s.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !s.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Bernoulli(0.3) empirical rate %.3f", frac)
	}
}

func TestDirectionUniform(t *testing.T) {
	t.Parallel()

	s := NewStream(17)
	counts := make(map[grid.Direction]int)
	const n = 8000
	for i := 0; i < n; i++ {
		d := s.Direction()
		if d.Unit() == (grid.Point{}) {
			t.Fatalf("invalid direction %v", d)
		}
		counts[d]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d directions produced", len(counts))
	}
	for d, c := range counts {
		if c < n/4-300 || c > n/4+300 {
			t.Errorf("direction %v drawn %d times, far from %d", d, c, n/4)
		}
	}
}

func TestUniformBallPoint(t *testing.T) {
	t.Parallel()

	s := NewStream(19)
	const radius = 4
	counts := make(map[grid.Point]int)
	const n = 26000 // 41 nodes in B(4); ≈ 634 samples per node.
	for i := 0; i < n; i++ {
		p := s.UniformBallPoint(radius)
		if p.L1() > radius {
			t.Fatalf("sampled point %v outside ball of radius %d", p, radius)
		}
		counts[p]++
	}
	if len(counts) != grid.BallSize(radius) {
		t.Errorf("sampled %d distinct nodes, want %d", len(counts), grid.BallSize(radius))
	}
	expected := float64(n) / float64(grid.BallSize(radius))
	for p, c := range counts {
		if float64(c) < 0.6*expected || float64(c) > 1.4*expected {
			t.Errorf("node %v sampled %d times, expected ≈ %.0f", p, c, expected)
		}
	}
	assertPanics(t, "negative radius", func() { s.UniformBallPoint(-1) })
}

func TestUniformRingPoint(t *testing.T) {
	t.Parallel()

	s := NewStream(23)
	if got := s.UniformRingPoint(0); got != grid.Origin {
		t.Errorf("UniformRingPoint(0) = %v, want origin", got)
	}
	for i := 0; i < 2000; i++ {
		r := 1 + s.IntN(50)
		p := s.UniformRingPoint(r)
		if p.L1() != r {
			t.Fatalf("UniformRingPoint(%d) = %v with L1 %d", r, p, p.L1())
		}
	}
	assertPanics(t, "negative radius", func() { s.UniformRingPoint(-2) })
}

func TestPowerLawRadiusDistribution(t *testing.T) {
	t.Parallel()

	s := NewStream(29)
	const delta = 0.5
	const n = 60000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		r := s.PowerLawRadius(delta)
		if r < 1 {
			t.Fatalf("PowerLawRadius returned %d < 1", r)
		}
		counts[r]++
	}
	// Compare the empirical mass of small radii against the exact values
	// r^-(1+δ)/ζ(1+δ).
	z := zeta(1 + delta)
	for r := 1; r <= 4; r++ {
		want := math.Pow(float64(r), -(1+delta)) / z
		got := float64(counts[r]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("P(radius=%d) = %.4f, want ≈ %.4f", r, got, want)
		}
	}
	assertPanics(t, "delta <= 0", func() { s.PowerLawRadius(0) })
}

func TestPowerLawRadiusTailExponent(t *testing.T) {
	t.Parallel()

	// The survival function obeys P(R > r) ≈ r^-δ / (δ·ζ(1+δ)) for large r,
	// so the tail ratio P(R > 2r)/P(R > r) should be close to 2^-δ.
	s := NewStream(31)
	const delta = 0.8
	const n = 80000
	var over20, over40 int
	for i := 0; i < n; i++ {
		r := s.PowerLawRadius(delta)
		if r > 20 {
			over20++
		}
		if r > 40 {
			over40++
		}
	}
	if over20 < 200 {
		t.Skipf("not enough tail mass to test ratio (over20=%d)", over20)
	}
	ratio := float64(over40) / float64(over20)
	want := math.Pow(2, -delta)
	if math.Abs(ratio-want) > 0.12 {
		t.Errorf("tail ratio = %.3f, want ≈ %.3f", ratio, want)
	}
}

func TestHarmonicPointDistribution(t *testing.T) {
	t.Parallel()

	s := NewStream(37)
	const delta = 0.6
	const n = 50000
	counts := make(map[grid.Point]int)
	for i := 0; i < n; i++ {
		p := s.HarmonicPoint(delta)
		if p == grid.Origin {
			t.Fatal("harmonic sample hit the origin; distribution excludes the source")
		}
		counts[p]++
	}
	// Check the four distance-1 nodes: each should have probability
	// c/1^(2+δ) = c where c = 1/(4ζ(1+δ)).
	c := harmonicNormalizer(delta)
	for _, p := range []grid.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
		got := float64(counts[p]) / n
		if math.Abs(got-c) > 0.02 {
			t.Errorf("P(%v) = %.4f, want ≈ %.4f", p, got, c)
		}
	}
	// Nodes on the same ring must have (roughly) identical probabilities.
	ring2 := []grid.Point{{X: 2}, {X: 1, Y: 1}, {Y: 2}, {X: -1, Y: 1}}
	base := counts[ring2[0]]
	for _, p := range ring2[1:] {
		diff := math.Abs(float64(counts[p]-base)) / n
		if diff > 0.02 {
			t.Errorf("ring-2 nodes have asymmetric mass: %v=%d vs %v=%d",
				ring2[0], base, p, counts[p])
		}
	}
}

// zeta returns the Riemann zeta function ζ(x) for x > 1, computed by direct
// summation with an integral tail correction: the normalising constant of the
// harmonic distribution, c = 1/(4·ζ(1+δ)), that the sampler tests compare
// against.
func zeta(x float64) float64 {
	if x <= 1 {
		return math.Inf(1)
	}
	const terms = 1 << 14
	sum := 0.0
	for n := 1; n <= terms; n++ {
		sum += math.Pow(float64(n), -x)
	}
	// Euler–Maclaurin tail: ∫_{terms}^∞ t^-x dt + ½·terms^-x.
	t := float64(terms)
	sum += math.Pow(t, 1-x)/(x-1) + 0.5*math.Pow(t, -x)
	return sum
}

func TestZeta(t *testing.T) {
	t.Parallel()

	tests := []struct {
		x    float64
		want float64
	}{
		{2, math.Pi * math.Pi / 6},
		{4, math.Pow(math.Pi, 4) / 90},
		{1.5, 2.612375},
		{3, 1.202057},
	}
	for _, tc := range tests {
		if got := zeta(tc.x); math.Abs(got-tc.want) > 1e-3 {
			t.Errorf("zeta(%.2f) = %.6f, want %.6f", tc.x, got, tc.want)
		}
	}
	if !math.IsInf(zeta(1), 1) {
		t.Error("zeta(1) should be +Inf")
	}
	if !math.IsInf(zeta(0.5), 1) {
		t.Error("zeta(0.5) should be +Inf")
	}
}

// harmonicNormalizer returns the constant c of the harmonic distribution for
// the given delta: c = 1/Σ_{u≠s} d(u)^-(2+delta) = 1/(4·ζ(1+delta)). It is
// the reference HarmonicPoint's sampled masses are checked against.
func harmonicNormalizer(delta float64) float64 {
	return 1 / (4 * zeta(1+delta))
}

func TestHarmonicNormalizer(t *testing.T) {
	t.Parallel()

	// Direct summation over a large ball should approach the closed form.
	const delta = 0.7
	sum := 0.0
	for r := 1; r <= 20000; r++ {
		sum += float64(grid.RingSize(r)) * math.Pow(float64(r), -(2+delta))
	}
	direct := 1 / sum
	if got := harmonicNormalizer(delta); math.Abs(got-direct)/direct > 0.02 {
		t.Errorf("harmonicNormalizer(%.1f) = %.5f, direct sum gives %.5f", delta, got, direct)
	}
}

func TestFloatSamplersSanity(t *testing.T) {
	t.Parallel()

	s := NewStream(41)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if m := sum / n; m < 0.49 || m > 0.51 {
		t.Errorf("Float64 mean = %.3f, want ≈ 0.5", m)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
