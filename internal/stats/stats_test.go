package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	t.Parallel()

	var a Accumulator
	if s := a.Summarize(); s != (Summary{}) {
		t.Errorf("zero-value accumulator should report zeros, got %+v", s)
	}
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range data {
		a.Add(v)
	}
	s := a.Summarize()
	if s.N != len(data) {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Population variance of this classic data set is 4; sample variance is
	// 32/7.
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("range = [%v, %v], want [2, 9]", s.Min, s.Max)
	}
	if want := 1.96 * s.StdDev / math.Sqrt(float64(len(data))); math.Abs(s.CI95-want) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", s.CI95, want)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestAccumulatorSingleObservation(t *testing.T) {
	t.Parallel()

	var a Accumulator
	a.Add(3.5)
	s := a.Summarize()
	if s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("single observation misreported: %+v", s)
	}
	if s.StdDev != 0 || s.CI95 != 0 {
		t.Errorf("dispersion of one observation = %v ±%v, want 0", s.StdDev, s.CI95)
	}
}

func TestAccumulatorMatchesDirectFormulaQuick(t *testing.T) {
	t.Parallel()

	f := func(raw []float64) bool {
		var data []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				data = append(data, v)
			}
		}
		if len(data) < 2 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, v := range data {
			a.Add(v)
			sum += v
		}
		mean := sum / float64(len(data))
		s := a.Summarize()
		if math.Abs(s.Mean-mean) > 1e-6*(1+math.Abs(mean)) {
			return false
		}
		ss := 0.0
		for _, v := range data {
			ss += (v - mean) * (v - mean)
		}
		variance := ss / float64(len(data)-1)
		return math.Abs(s.StdDev*s.StdDev-variance) <= 1e-6*(1+variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("Welford accumulation disagrees with direct formula: %v", err)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	t.Parallel()

	if Quantile(nil, 0.5) != 0 {
		t.Error("quantile of empty data should be 0")
	}
	data := []float64{9, 1, 7, 3, 5}
	if got := Quantile(data, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
	if got := Quantile(data, 0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := Quantile(data, 1); got != 9 {
		t.Errorf("Quantile(1) = %v, want 9", got)
	}
	if got := Quantile(data, 0.25); got != 3 {
		t.Errorf("Quantile(0.25) = %v, want 3", got)
	}
	// Out-of-range q values clamp.
	if got := Quantile(data, -1); got != 1 {
		t.Errorf("Quantile(-1) = %v, want 1", got)
	}
	if got := Quantile(data, 2); got != 9 {
		t.Errorf("Quantile(2) = %v, want 9", got)
	}
	// Interpolation between order statistics.
	pairs := []float64{10, 20}
	if got := Quantile(pairs, 0.5); got != 15 {
		t.Errorf("interpolated quantile = %v, want 15", got)
	}
	// Interpolation never leaves the bracketing order statistics, even when
	// they are equal (where a·(1-t) + b·t rounds above them at t = 0.2) or
	// their gap overflows.
	if x := 5.6377959581526436e+10; Quantile([]float64{x, x}, 0.2) != x {
		t.Errorf("quantile of equal samples = %v, want %v", Quantile([]float64{x, x}, 0.2), x)
	}
	if got := Quantile([]float64{-1e308, 1e308}, 0.5); got != 0 {
		t.Errorf("quantile across the float range = %v, want 0", got)
	}
	// The input must not be reordered.
	if data[0] != 9 || data[4] != 5 {
		t.Error("Quantile modified its input")
	}
}

func TestLinearFit(t *testing.T) {
	t.Parallel()

	if _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x values should fail")
	}

	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-3) > 1e-12 || math.Abs(intercept+7) > 1e-12 {
		t.Errorf("fit = (%v, %v), want (3, -7)", slope, intercept)
	}
}

func TestLogLogSlope(t *testing.T) {
	t.Parallel()

	// y = 5·x^1.7 should fit an exponent of 1.7 exactly.
	var xs, ys []float64
	for x := 1.0; x <= 64; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 5*math.Pow(x, 1.7))
	}
	slope, err := LogLogSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-1.7) > 1e-9 {
		t.Errorf("slope = %v, want 1.7", slope)
	}

	// Non-positive points are skipped; too few usable points is an error.
	if _, err := LogLogSlope([]float64{-1, 0}, []float64{1, 2}); err == nil {
		t.Error("expected error when all points are unusable")
	}
	if _, err := LogLogSlope([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should fail")
	}
}
