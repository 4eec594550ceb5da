package stats

import (
	"fmt"
	"math"
	"sort"
)

// DefaultSketchCap is the number of observations a Sketch keeps exactly
// before switching to P² estimation. Up to this many observations, sketch
// quantiles are identical to Quantile over the raw data; beyond it the sketch
// answers from constant-size marker state.
const DefaultSketchCap = 1024

// defaultTracked is the set of quantiles a sketch keeps P² markers for once
// it leaves exact mode. Queries between tracked points are interpolated.
var defaultTracked = []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// p2 estimates a single quantile of a stream in O(1) memory with the P²
// algorithm of Jain and Chlamtac (CACM 1985): five markers track the minimum,
// the q/2, q and (1+q)/2 quantiles and the maximum, and are nudged towards
// their ideal positions with piecewise-parabolic interpolation after every
// observation. The zero value is not usable; construct with newP2.
type p2 struct {
	q       float64
	n       [5]int     // actual marker positions (1-based observation counts)
	np      [5]float64 // desired marker positions
	dn      [5]float64 // desired position increments per observation
	heights [5]float64
	count   int
}

// newP2 returns a P² estimator for the q-quantile, 0 < q < 1.
func newP2(q float64) (*p2, error) {
	if !(q > 0 && q < 1) {
		return nil, fmt.Errorf("stats: P2 quantile must be in (0, 1), got %v", q)
	}
	p := &p2{q: q}
	p.dn = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p, nil
}

// Add incorporates one observation.
func (p *p2) Add(x float64) {
	if p.count < 5 {
		p.heights[p.count] = x
		p.count++
		if p.count == 5 {
			sort.Float64s(p.heights[:])
			for i := range p.n {
				p.n[i] = i + 1
				p.np[i] = 1 + 4*p.dn[i]
			}
		}
		return
	}
	p.count++

	// Find the cell the observation falls into and stretch the extremes.
	var cell int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		cell = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		cell = 3
	default:
		for cell = 0; cell < 3; cell++ {
			if x < p.heights[cell+1] {
				break
			}
		}
	}
	for i := cell + 1; i < 5; i++ {
		p.n[i]++
	}
	for i := range p.np {
		p.np[i] += p.dn[i]
	}

	// Adjust the three interior markers towards their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.np[i] - float64(p.n[i])
		if (d >= 1 && p.n[i+1]-p.n[i] > 1) || (d <= -1 && p.n[i-1]-p.n[i] < -1) {
			sign := 1
			if d < 0 {
				sign = -1
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.n[i] += sign
		}
	}
}

// parabolic is the piecewise-parabolic (P²) height update for marker i moved
// by sign (±1).
func (p *p2) parabolic(i, sign int) float64 {
	d := float64(sign)
	nm, ni, np := float64(p.n[i-1]), float64(p.n[i]), float64(p.n[i+1])
	return p.heights[i] + d/(np-nm)*
		((ni-nm+d)*(p.heights[i+1]-p.heights[i])/(np-ni)+
			(np-ni-d)*(p.heights[i]-p.heights[i-1])/(ni-nm))
}

// linear is the fallback linear height update.
func (p *p2) linear(i, sign int) float64 {
	return p.heights[i] + float64(sign)*
		(p.heights[i+sign]-p.heights[i])/float64(p.n[i+sign]-p.n[i])
}

// Value returns the current estimate of the q-quantile. With fewer than five
// observations it falls back to the exact quantile of the buffered values.
func (p *p2) Value() float64 {
	if p.count == 0 {
		return 0
	}
	if p.count < 5 {
		return Quantile(p.heights[:p.count], p.q)
	}
	return p.heights[2]
}

// Sketch summarises the quantiles of a stream in bounded memory. Up to cap
// observations it stores the samples and answers exactly (Quantile over the
// raw data, so small runs reproduce the pre-streaming aggregation
// bit-for-bit); past the cap it switches to one P² estimator per tracked
// quantile (defaultTracked) and stays at constant size no matter how many
// observations follow. Its JSON form (json.go) is its complete state. The
// zero value is not usable; construct with NewSketch.
type Sketch struct {
	cap     int
	samples []float64 // exact mode; nil once estimators take over
	est     []*p2     // estimation mode, parallel to defaultTracked
	n       int
	min     float64
	max     float64
}

// NewSketch returns a sketch that is exact up to cap observations (0 means
// DefaultSketchCap) and tracks a default spread of quantiles beyond it. The
// cap is clamped to at least 4, so switching to estimation replays at least
// five buffered samples: every P² estimator leaves its warm-up at once.
func NewSketch(cap int) *Sketch {
	if cap <= 0 {
		cap = DefaultSketchCap
	}
	if cap < 4 {
		cap = 4
	}
	return &Sketch{cap: cap}
}

// Add incorporates one observation.
func (s *Sketch) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	s.n++
	if s.est == nil {
		s.samples = append(s.samples, x)
		if len(s.samples) > s.cap {
			s.estimate()
		}
		return
	}
	for _, e := range s.est {
		e.Add(x)
	}
}

// trackedEstimators returns a fresh P² estimator for each tracked quantile.
func trackedEstimators() []*p2 {
	est := make([]*p2, len(defaultTracked))
	for i, q := range defaultTracked {
		e, err := newP2(q)
		if err != nil {
			panic(err) // tracked quantiles are compile-time constants in (0, 1)
		}
		est[i] = e
	}
	return est
}

// estimate switches the sketch from exact to P² mode, replaying the buffered
// samples (in insertion order) into the estimators and releasing the buffer.
func (s *Sketch) estimate() {
	s.est = trackedEstimators()
	for _, x := range s.samples {
		for _, e := range s.est {
			e.Add(x)
		}
	}
	s.samples = nil
}

// Summary snapshots the sketch into an immutable value. In estimation mode
// the tracked estimates are clamped into the observed [min, max] and made
// non-decreasing across the tracked quantiles (a running maximum): the P²
// estimators are independent per quantile and on duplicate-heavy streams
// adjacent ones can cross by tiny amounts, which would make Quantile
// non-monotone in q — an invariant violation callers are allowed to rely on.
func (s *Sketch) Summary() QuantileSummary {
	sum := QuantileSummary{N: s.n, Min: s.min, Max: s.max}
	if s.est == nil {
		sum.Exact = true
		sum.samples = append([]float64(nil), s.samples...)
		sort.Float64s(sum.samples)
		return sum
	}
	sum.qs = append([]float64(nil), defaultTracked...)
	sum.vs = make([]float64, len(s.est))
	prev := sum.Min
	for i, e := range s.est {
		v := e.Value()
		if v < prev {
			v = prev
		}
		if v > sum.Max {
			v = sum.Max
		}
		sum.vs[i] = v
		prev = v
	}
	return sum
}

// QuantileSummary is an immutable snapshot of a Sketch, convenient to embed
// in result structs. Its size is bounded by the sketch cap, never by the
// number of observations.
type QuantileSummary struct {
	// N is the number of observations summarised.
	N int
	// Min and Max are the exact observed extremes.
	Min, Max float64
	// Exact reports whether Quantile answers exactly (the stream fitted the
	// sketch cap) or from P² estimates.
	Exact bool

	samples []float64 // sorted; exact mode only
	qs, vs  []float64 // tracked quantiles and their estimates
}

// Quantile returns the q-quantile of the summarised stream. In exact mode it
// equals Quantile over the observations; in estimation mode tracked
// quantiles answer from their P² markers and intermediate ones interpolate
// linearly between the nearest tracked neighbours (with the observed min and
// max anchoring the ends).
func (s QuantileSummary) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if s.Exact {
		return sortedQuantile(s.samples, q)
	}
	// Interpolate over the anchors (0, Min), (qs, vs)..., (1, Max).
	lo, hi := 0.0, 1.0
	loV, hiV := s.Min, s.Max
	for i, tq := range s.qs {
		if tq == q {
			return s.vs[i]
		}
		if tq < q && tq > lo {
			lo, loV = tq, s.vs[i]
		}
		if tq > q && tq < hi {
			hi, hiV = tq, s.vs[i]
		}
	}
	if hi == lo {
		return loV
	}
	return lerp(loV, hiV, (q-lo)/(hi-lo))
}

// Median returns the 0.5-quantile.
func (s QuantileSummary) Median() float64 { return s.Quantile(0.5) }

// sortedQuantile is Quantile for data that is already sorted, avoiding the
// defensive copy.
func sortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return lerp(sorted[lo], sorted[hi], pos-float64(lo))
}

// lerp interpolates from a to b >= a at t in [0, 1] as a + (b-a)·t, clamped
// into [a, b]. Unlike a·(1-t) + b·t, whose rounding can dip as t grows
// between neighbours a few ulps apart, this form never decreases in t. It
// runs on halves, an exact scaling for normal floats, so b-a cannot overflow
// when a and b sit at opposite ends of the float range.
func lerp(a, b, t float64) float64 {
	v := 2 * (a/2 + (b/2-a/2)*t)
	return math.Min(math.Max(v, a), b)
}
