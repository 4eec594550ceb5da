// Package stats provides the small statistical toolkit the experiment
// harness needs: streaming mean/variance accumulation (Welford), streaming
// quantile sketches (P²), normal confidence intervals, order statistics and
// simple linear regression for fitting growth exponents on log-log data.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MergeReplayCap is the largest number of observations a merge may replay:
// sim.TrialAccumulator logs its first MergeReplayCap trials, and Merge
// replays that log, in order, into the running total, so a merged state is
// bit-identical to sequential accumulation whatever the partition. The sweep
// engine itself adds each trial to one accumulator in order, and plans no
// shard larger than this cap; the cap fixes its shard plan and bounds the
// per-trial results in flight. It matches DefaultSketchCap, so a merged
// shard's quantile sketch is still exact when it is replayed.
const MergeReplayCap = DefaultSketchCap

// Accumulator computes running mean and variance using Welford's method. The
// zero value is ready to use. Its JSON form (json.go) is its complete state.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Summary is an immutable snapshot of an accumulator, convenient to embed in
// experiment results.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize snapshots the accumulator: the sample mean, the sample standard
// deviation (from the unbiased variance, 0 with fewer than two
// observations), the range (zeros for an empty accumulator) and the
// half-width of the normal-approximation 95% confidence interval for the
// mean.
func (a *Accumulator) Summarize() Summary {
	variance := 0.0
	if a.n >= 2 {
		variance = a.m2 / float64(a.n-1)
	}
	stdDev := math.Sqrt(variance)
	stdErr := 0.0
	if a.n > 0 {
		stdErr = stdDev / math.Sqrt(float64(a.n))
	}
	return Summary{
		N:      a.n,
		Mean:   a.mean,
		StdDev: stdDev,
		Min:    a.min,
		Max:    a.max,
		CI95:   1.96 * stdErr,
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.3g ±%.2g (n=%d, sd=%.3g, range [%.3g, %.3g])",
		s.Mean, s.CI95, s.N, s.StdDev, s.Min, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data using linear
// interpolation between order statistics. It returns 0 for an empty slice.
// The input is not modified.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return sortedQuantile(sorted, q)
}

// LinearFit fits y = intercept + slope·x by least squares. It returns an
// error if fewer than two points are supplied or the x values are all equal.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0, fmt.Errorf("stats: degenerate x values")
	}
	slope = (n*sxy - sx*sy) / denom
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// LogLogSlope fits the exponent p of a power law y ≈ c·x^p from positive
// samples by regressing log y on log x. Points with non-positive coordinates
// are skipped; an error is returned if fewer than two usable points remain.
func LogLogSlope(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	slope, _, err := LinearFit(lx, ly)
	if err != nil {
		return 0, fmt.Errorf("stats: log-log fit: %w", err)
	}
	return slope, nil
}
