package core

import (
	"math"
	"strings"
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// collectSegments pulls batches from a searcher until it has n segments or
// the schedule ends, returns at most n, and fails the test if the trajectory
// is discontinuous or does not start at the source.
func collectSegments(t *testing.T, s agent.Searcher, n int) []trajectory.Seg {
	t.Helper()
	var segs []trajectory.Seg
	for len(segs) < n {
		var ok bool
		if segs, ok = s.EmitSortie(segs); !ok {
			break
		}
	}
	if len(segs) > n {
		segs = segs[:n]
	}
	pos := grid.Origin
	for i, seg := range segs {
		if seg.Start() != pos {
			t.Fatalf("segment %d (%v) starts at %v, agent is at %v", i, seg, seg.Start(), pos)
		}
		pos = seg.End()
	}
	return segs
}

// sortieCount counts how many times the trajectory returns to the source,
// which for sortie-structured algorithms equals the number of completed
// sorties.
func sortieCount(segs []trajectory.Seg) int {
	count := 0
	for _, seg := range segs {
		if seg.End() == grid.Origin {
			count++
		}
	}
	return count
}

func TestKnownKConstructor(t *testing.T) {
	t.Parallel()

	if _, err := NewKnownK(0); err == nil {
		t.Error("NewKnownK(0) should fail")
	}
	if _, err := NewKnownK(-4); err == nil {
		t.Error("NewKnownK(-4) should fail")
	}
	a, err := NewKnownK(16)
	if err != nil {
		t.Fatalf("NewKnownK(16): %v", err)
	}
	if a.k != 16 {
		t.Errorf("k = %d, want 16", a.k)
	}
	if !strings.Contains(a.Name(), "known-k") {
		t.Errorf("Name() = %q", a.Name())
	}
}

func TestKnownKScheduleShape(t *testing.T) {
	t.Parallel()

	const k = 4
	a := &KnownK{k: k}
	rng := xrand.NewStream(1, 0)
	segs := collectSegments(t, a.NewSearcher(nil, rng, 0), 200)
	if len(segs) != 200 {
		t.Fatalf("known-k searcher stopped after %d segments; it should be infinite", len(segs))
	}
	if sortieCount(segs) < 30 {
		t.Errorf("expected many completed sorties in 200 segments, got %d", sortieCount(segs))
	}

	// Every spiral's budget must match 2^(2i+2)/k for the phase radius 2^i it
	// was drawn for: the spiral length divided by the square of the ball
	// radius is the constant 4/k.
	for _, seg := range segs {
		if seg.Kind() != trajectory.KindSpiral || seg.Duration() == 0 {
			continue
		}
		// The target was drawn from B(2^i); we cannot recover i exactly from
		// the sample, but the spiral budget itself must be one of the allowed
		// values 2^(2i+2)/k.
		found := false
		for i := 1; i <= 40; i++ {
			want := (1 << (2*i + 2)) / k
			if seg.Duration() == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("spiral duration %d is not of the form 2^(2i+2)/k", seg.Duration())
		}
	}
}

func TestKnownKTargetsWithinPhaseRadius(t *testing.T) {
	t.Parallel()

	// With k = 1 the spiral budget for phase i is 2^(2i+2), so the ball
	// radius 2^i equals sqrt(budget)/2; every sortie target must lie within
	// that radius.
	a := &KnownK{k: 1}
	rng := xrand.NewStream(7, 0)
	segs := collectSegments(t, a.NewSearcher(nil, rng, 0), 120)
	for _, seg := range segs {
		if seg.Kind() != trajectory.KindSpiral {
			continue
		}
		// A fresh spiral search starts at its centre, the sortie target.
		radius := spiralCoveredRadius(seg.Duration()) // ≈ sqrt(budget)/2
		if seg.Start().L1() > radius+1 {
			t.Errorf("sortie target %v outside phase ball (budget %d, radius %d)",
				seg.Start(), seg.Duration(), radius)
		}
	}
}

func TestKnownKFactoryUsesTrueK(t *testing.T) {
	t.Parallel()

	f := Factory()
	alg := f(32)
	kk, ok := alg.(*KnownK)
	if !ok {
		t.Fatalf("factory returned %T, want *KnownK", alg)
	}
	if kk.k != 32 {
		t.Errorf("factory algorithm has k = %d, want 32", kk.k)
	}
	if bad := f(0).(*KnownK); bad.k != 1 {
		t.Errorf("factory should clamp k to 1, got %d", bad.k)
	}
}

func TestRhoApprox(t *testing.T) {
	t.Parallel()

	if _, err := NewRhoApprox(0, 2); err == nil {
		t.Error("NewRhoApprox(0, 2) should fail")
	}
	if _, err := NewRhoApprox(8, 0.5); err == nil {
		t.Error("NewRhoApprox with rho < 1 should fail")
	}
	a, err := NewRhoApprox(8, 2)
	if err != nil {
		t.Fatalf("NewRhoApprox: %v", err)
	}
	if a.inner.k != 4 {
		t.Errorf("assumed k = %d, want 4 (ka/rho)", a.inner.k)
	}
	if !strings.Contains(a.Name(), "rho-approx") {
		t.Errorf("Name = %q", a.Name())
	}
	// The assumed k never drops below 1.
	small, err := NewRhoApprox(1, 8)
	if err != nil {
		t.Fatalf("NewRhoApprox(1, 8): %v", err)
	}
	if small.inner.k != 1 {
		t.Errorf("assumed k = %d, want 1", small.inner.k)
	}

	rng := xrand.NewStream(3, 0)
	segs := collectSegments(t, a.NewSearcher(nil, rng, 0), 30)
	if len(segs) != 30 {
		t.Errorf("rho-approx searcher stopped after %d segments", len(segs))
	}
}

func TestRhoApproxFactoryValidation(t *testing.T) {
	t.Parallel()

	if _, err := RhoApproxFactory(0.5, 1); err == nil {
		t.Error("rho < 1 should be rejected")
	}
	if _, err := RhoApproxFactory(2, 4); err == nil {
		t.Error("bias outside [1/rho, rho] should be rejected")
	}
	if _, err := RhoApproxFactory(2, 0.1); err == nil {
		t.Error("bias below 1/rho should be rejected")
	}

	f, err := RhoApproxFactory(4, 0.5)
	if err != nil {
		t.Fatalf("RhoApproxFactory: %v", err)
	}
	alg := f(64)
	ra, ok := alg.(*RhoApprox)
	if !ok {
		t.Fatalf("factory returned %T, want *RhoApprox", alg)
	}
	// ka = 64 * 0.5 = 32, assumed = ka / rho = 8.
	if ra.inner.k != 8 {
		t.Errorf("assumed k = %d, want 8", ra.inner.k)
	}
	if clamped := f(1).(*RhoApprox); clamped.inner.k < 1 {
		t.Errorf("assumed k should never drop below 1, got %d", clamped.inner.k)
	}
}

func TestUniformConstructor(t *testing.T) {
	t.Parallel()

	if _, err := NewUniform(0); err == nil {
		t.Error("NewUniform(0) should fail: Theorem 4.1 forbids epsilon = 0")
	}
	if _, err := NewUniform(-1); err == nil {
		t.Error("NewUniform(-1) should fail")
	}
	a, err := NewUniform(0.5)
	if err != nil {
		t.Fatalf("NewUniform: %v", err)
	}
	if a.epsilon != 0.5 {
		t.Errorf("epsilon = %v, want 0.5", a.epsilon)
	}
}

func TestUniformIsKOblivious(t *testing.T) {
	t.Parallel()

	// The factory must return the very same algorithm regardless of k, and
	// searchers with the same stream must produce identical schedules — the
	// algorithm has no way to observe k.
	f, err := UniformFactory(0.3)
	if err != nil {
		t.Fatalf("UniformFactory: %v", err)
	}
	a1, a2 := f(1), f(1024)
	if a1 != a2 {
		t.Errorf("uniform factory returned different algorithms for different k")
	}

	segs1 := collectSegments(t, a1.NewSearcher(nil, xrand.NewStream(5, 0), 0), 60)
	segs2 := collectSegments(t, a2.NewSearcher(nil, xrand.NewStream(5, 0), 0), 60)
	if len(segs1) != len(segs2) {
		t.Fatalf("schedules differ in length: %d vs %d", len(segs1), len(segs2))
	}
	for i := range segs1 {
		if segs1[i].String() != segs2[i].String() {
			t.Fatalf("schedules diverge at segment %d: %v vs %v", i, segs1[i], segs2[i])
		}
	}
}

func TestUniformScheduleGrows(t *testing.T) {
	t.Parallel()

	a := &Uniform{epsilon: 0.5}
	rng := xrand.NewStream(11, 0)
	segs := collectSegments(t, a.NewSearcher(nil, rng, 0), 600)
	if len(segs) != 600 {
		t.Fatalf("uniform searcher stopped after %d segments; it should be infinite", len(segs))
	}

	// Spiral budgets must grow without bound (later big-stages reach larger
	// radii) and sortie structure must keep returning to the source.
	maxEarly, maxLate := 0, 0
	for i, seg := range segs {
		if seg.Kind() != trajectory.KindSpiral {
			continue
		}
		if i < 100 && seg.Duration() > maxEarly {
			maxEarly = seg.Duration()
		}
		if i >= 500 && seg.Duration() > maxLate {
			maxLate = seg.Duration()
		}
	}
	if maxLate <= maxEarly {
		t.Errorf("spiral budgets do not grow: early max %d, late max %d", maxEarly, maxLate)
	}
	if sortieCount(segs) < 100 {
		t.Errorf("expected at least 100 completed sorties, got %d", sortieCount(segs))
	}
}

func TestHarmonicConstructor(t *testing.T) {
	t.Parallel()

	for _, bad := range []float64{0, -0.2, 2, 2.5} {
		if _, err := NewHarmonic(bad); err == nil {
			t.Errorf("NewHarmonic(%v) should fail", bad)
		}
		if _, err := NewHarmonicRestart(bad); err == nil {
			t.Errorf("NewHarmonicRestart(%v) should fail", bad)
		}
	}
	a, err := NewHarmonic(0.5)
	if err != nil {
		t.Fatalf("NewHarmonic: %v", err)
	}
	if a.delta != 0.5 {
		t.Errorf("delta = %v", a.delta)
	}

	r, err := NewHarmonicRestart(0.3)
	if err != nil {
		t.Fatalf("NewHarmonicRestart: %v", err)
	}
	if r.delta != 0.3 {
		t.Errorf("restart delta = %v", r.delta)
	}
}

func TestHarmonicIsOneShot(t *testing.T) {
	t.Parallel()

	a := &Harmonic{delta: 0.5}
	rng := xrand.NewStream(13, 0)
	s := a.NewSearcher(nil, rng, 0)
	segs := collectSegments(t, s, 100)
	if len(segs) == 0 || len(segs) > 3 {
		t.Fatalf("harmonic sortie should expand to 1–3 segments, got %d", len(segs))
	}
	if segs[len(segs)-1].End() != grid.Origin {
		t.Errorf("harmonic agent must end back at the source, ends at %v", segs[len(segs)-1].End())
	}
	if _, ok := s.EmitSortie(nil); ok {
		t.Error("harmonic searcher should be exhausted after its single sortie")
	}
}

func TestHarmonicSpiralBudgetMatchesDistance(t *testing.T) {
	t.Parallel()

	const delta = 0.6
	a := &Harmonic{delta: delta}
	for seedIdx := 0; seedIdx < 50; seedIdx++ {
		rng := xrand.NewStream(100, uint64(seedIdx))
		segs := collectSegments(t, a.NewSearcher(nil, rng, 0), 4)
		var sp trajectory.Seg
		found := false
		for _, seg := range segs {
			if seg.Kind() == trajectory.KindSpiral {
				sp, found = seg, true
				break
			}
		}
		if !found {
			t.Fatalf("no spiral segment in harmonic sortie %d", seedIdx)
		}
		d := float64(sp.Start().L1()) // a fresh spiral starts at its centre
		want := int(math.Pow(d, 2+delta))
		if sp.Duration() != want {
			t.Errorf("spiral budget %d for target at distance %.0f, want %d",
				sp.Duration(), d, want)
		}
	}
}

func TestHarmonicRestartRepeats(t *testing.T) {
	t.Parallel()

	a, err := NewHarmonicRestart(0.5)
	if err != nil {
		t.Fatalf("NewHarmonicRestart: %v", err)
	}
	rng := xrand.NewStream(17, 0)
	segs := collectSegments(t, a.NewSearcher(nil, rng, 0), 90)
	if len(segs) != 90 {
		t.Fatalf("harmonic-restart stopped after %d segments; it should be infinite", len(segs))
	}
	if sortieCount(segs) < 20 {
		t.Errorf("expected at least 20 sorties in 90 segments, got %d", sortieCount(segs))
	}
}

func TestFactoriesProduceUsableAlgorithms(t *testing.T) {
	t.Parallel()

	hf, err := HarmonicFactory(0.5)
	if err != nil {
		t.Fatalf("HarmonicFactory: %v", err)
	}
	hrf, err := HarmonicRestartFactory(0.5)
	if err != nil {
		t.Fatalf("HarmonicRestartFactory: %v", err)
	}
	uf, err := UniformFactory(0.5)
	if err != nil {
		t.Fatalf("UniformFactory: %v", err)
	}
	rf, err := RhoApproxFactory(2, 1)
	if err != nil {
		t.Fatalf("RhoApproxFactory: %v", err)
	}
	factories := map[string]agent.Factory{
		"known-k":          Factory(),
		"rho-approx":       rf,
		"uniform":          uf,
		"harmonic":         hf,
		"harmonic-restart": hrf,
	}
	for name, f := range factories {
		alg := f(8)
		if alg == nil {
			t.Errorf("%s factory returned nil", name)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("%s algorithm has empty name", name)
		}
		segs := collectSegments(t, alg.NewSearcher(nil, xrand.NewStream(1, 2), 0), 5)
		if len(segs) == 0 {
			t.Errorf("%s produced no segments", name)
		}
	}

	if _, err := HarmonicFactory(0); err == nil {
		t.Error("HarmonicFactory(0) should fail")
	}
	if _, err := HarmonicRestartFactory(-1); err == nil {
		t.Error("HarmonicRestartFactory(-1) should fail")
	}
	if _, err := UniformFactory(0); err == nil {
		t.Error("UniformFactory(0) should fail")
	}
}

func TestClampHelpers(t *testing.T) {
	t.Parallel()

	if got := clampSteps(-5); got != 0 {
		t.Errorf("clampSteps(-5) = %d, want 0", got)
	}
	if got := clampSteps(1e30); got != maxSpiralSteps {
		t.Errorf("clampSteps(1e30) = %d, want %d", got, maxSpiralSteps)
	}
	if got := clampSteps(100.9); got != 100 {
		t.Errorf("clampSteps(100.9) = %d, want 100", got)
	}
	if got := clampRadius(-1); got != 0 {
		t.Errorf("clampRadius(-1) = %d, want 0", got)
	}
	if got := clampRadius(1e30); got != maxBallRadius {
		t.Errorf("clampRadius(1e30) = %d, want %d", got, maxBallRadius)
	}
}

func TestExpandSortie(t *testing.T) {
	t.Parallel()

	// A degenerate sortie at the source with no spiral still yields a single
	// zero-length spiral segment (never zero segments).
	segs := appendSortie(nil, sortie{target: grid.Origin, spiralSteps: 0})
	if len(segs) != 1 {
		t.Fatalf("degenerate sortie expands to %d segments, want 1", len(segs))
	}
	if segs[0].Duration() != 0 {
		t.Errorf("degenerate sortie has duration %d, want 0", segs[0].Duration())
	}

	// A normal sortie expands to walk-out, spiral, walk-home, all contiguous
	// and ending at the source.
	segs = appendSortie(nil, sortie{target: grid.Point{X: 3, Y: 1}, spiralSteps: 10})
	if len(segs) != 3 {
		t.Fatalf("sortie expands to %d segments, want 3", len(segs))
	}
	if segs[0].Start() != grid.Origin || segs[len(segs)-1].End() != grid.Origin {
		t.Error("sortie must start and end at the source")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start() != segs[i-1].End() {
			t.Errorf("sortie segments %d and %d are not contiguous", i-1, i)
		}
	}
}

// spiralCoveredRadius returns the largest L1 radius around the centre that a
// spiral of the given number of steps is guaranteed to have fully visited:
// the largest d with (2d+1)² - 1 <= steps, since L1 distance dominates
// Chebyshev distance and the spiral completes Chebyshev ring d at step
// (2d+1)² - 1.
func spiralCoveredRadius(steps int) int {
	d := 0
	for (2*d+3)*(2*d+3)-1 <= steps {
		d++
	}
	return d
}
