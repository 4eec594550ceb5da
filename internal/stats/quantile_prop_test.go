package stats

import (
	"math"
	"testing"
)

// Property tests for the P² estimator and the sketch under the inputs that
// historically break P² implementations: duplicate-heavy streams (marker
// heights collide), adversarially ordered streams (sorted, reverse-sorted,
// organ-pipe, min/max alternation) and constant streams. The invariants:
//
//   - marker heights stay non-decreasing after every observation;
//   - marker positions stay strictly increasing, with n[0] pinned to the
//     first observation and n[4] to the last;
//   - the estimate stays inside the observed [min, max];
//   - sketch quantiles stay monotone in q, in exact mode and past the cap.

// propStreams enumerates the adversarial input orderings, deterministically.
func propStreams(n int) map[string][]float64 {
	streams := map[string][]float64{
		"constant": make([]float64, n),
	}
	var asc, desc, organ, alt, dup, twoInter, twoBlock, ninety []float64
	g := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		g = g*6364136223846793005 + 1442695040888963407
		return g
	}
	for i := 0; i < n; i++ {
		asc = append(asc, float64(i))
		desc = append(desc, float64(n-i))
		if i%2 == 0 {
			organ = append(organ, float64(i))
			alt = append(alt, float64(-i))
		} else {
			organ = append(organ, float64(n-i))
			alt = append(alt, float64(i))
		}
		dup = append(dup, float64(next()>>61)) // 8 distinct values
		twoInter = append(twoInter, float64(1+i%2))
		if i < n/2 {
			twoBlock = append(twoBlock, 1)
		} else {
			twoBlock = append(twoBlock, 2)
		}
		if next()>>61 == 0 {
			ninety = append(ninety, float64(next()>>58))
		} else {
			ninety = append(ninety, 5) // ~87% of the stream is the value 5
		}
	}
	streams["ascending"] = asc
	streams["descending"] = desc
	streams["organ-pipe"] = organ
	streams["alternating"] = alt
	streams["duplicate-heavy"] = dup
	streams["two-valued-interleaved"] = twoInter
	streams["two-valued-blocky"] = twoBlock
	streams["ninety-percent-dup"] = ninety
	return streams
}

func TestP2MarkerInvariants(t *testing.T) {
	t.Parallel()

	for name, s := range propStreams(2000) {
		for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			p, err := newP2(q)
			if err != nil {
				t.Fatal(err)
			}
			mn, mx := math.Inf(1), math.Inf(-1)
			for step, x := range s {
				p.Add(x)
				mn = math.Min(mn, x)
				mx = math.Max(mx, x)
				if p.count < 5 {
					continue
				}
				for i := 0; i < 4; i++ {
					if p.heights[i] > p.heights[i+1] {
						t.Fatalf("%s q=%v step %d: marker heights non-monotone: %v",
							name, q, step, p.heights)
					}
					if p.n[i] >= p.n[i+1] {
						t.Fatalf("%s q=%v step %d: marker positions collided: %v",
							name, q, step, p.n)
					}
				}
				if p.n[0] != 1 || p.n[4] != p.count {
					t.Fatalf("%s q=%v step %d: extreme markers drifted: n=%v count=%d",
						name, q, step, p.n, p.count)
				}
			}
			if v := p.Value(); v < mn || v > mx {
				t.Errorf("%s q=%v: estimate %v outside observed [%v, %v]", name, q, v, mn, mx)
			}
		}
	}
}

func TestSketchQuantileSanityUnderAdversarialStreams(t *testing.T) {
	t.Parallel()

	// 6000 observations push every stream well past the exact cap (1024), so
	// this exercises the P²-estimation mode.
	for name, s := range propStreams(6000) {
		sk := NewSketch(0)
		for _, x := range s {
			sk.Add(x)
		}
		if sk.est == nil {
			t.Fatalf("%s: sketch unexpectedly still exact after %d observations", name, len(s))
		}
		sum := sk.Summary()
		prev := sum.Min
		for _, q := range []float64{0, 0.05, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 1} {
			v := sum.Quantile(q)
			if v < sum.Min || v > sum.Max {
				t.Errorf("%s q=%v: %v outside [%v, %v]", name, q, v, sum.Min, sum.Max)
			}
			if v < prev-1e-9 {
				t.Errorf("%s q=%v: quantiles non-monotone (%v after %v)", name, q, v, prev)
			}
			prev = v
		}
	}
}

// TestP2DuplicateHeavyAccuracy pins the estimator's behaviour on the stream
// where most of the mass sits on a single value: the median must land on the
// dominant value, not between it and the outliers.
func TestP2DuplicateHeavyAccuracy(t *testing.T) {
	t.Parallel()

	s := propStreams(6000)["ninety-percent-dup"]
	p, err := newP2(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s {
		p.Add(x)
	}
	if v := p.Value(); math.Abs(v-5) > 0.5 {
		t.Errorf("median of an ~87%%-duplicate stream = %v, want ≈ 5", v)
	}
}
