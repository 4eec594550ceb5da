package stats

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestAccumulatorBinaryRoundTrip pins the codec's core guarantee: a decoded
// accumulator is indistinguishable from the original — not just in its
// summary, but in how it behaves under further Adds and Merges.
func TestAccumulatorBinaryRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{0, 1, 5, MergeReplayCap - 1, MergeReplayCap, MergeReplayCap + 100} {
		var a Accumulator
		for i := 0; i < n; i++ {
			a.Add(rng.NormFloat64() * 1e3)
		}
		var b Accumulator
		rest, err := b.DecodeBinary(a.AppendBinary(nil))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d undecoded bytes", n, len(rest))
		}
		// Continue both with the same suffix; every summary stat must stay
		// bit-identical, including the replay-log-driven merge behaviour.
		var intoA, intoB Accumulator
		for i := 0; i < 50; i++ {
			x := rng.Float64()
			a.Add(x)
			b.Add(x)
		}
		intoA.Merge(a)
		intoB.Merge(b)
		for name, pair := range map[string][2]float64{
			"mean": {intoA.Mean(), intoB.Mean()},
			"var":  {intoA.Variance(), intoB.Variance()},
			"min":  {intoA.Min(), intoB.Min()},
			"max":  {intoA.Max(), intoB.Max()},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("n=%d: %s diverged after round trip: %v vs %v", n, name, pair[0], pair[1])
			}
		}
		if intoA.N() != intoB.N() {
			t.Fatalf("n=%d: N diverged: %d vs %d", n, intoA.N(), intoB.N())
		}
	}
}

func TestAccumulatorBinaryPreservesDisableReplay(t *testing.T) {
	t.Parallel()

	var a Accumulator
	a.DisableReplay()
	a.Add(1)
	a.Add(2)
	var b Accumulator
	if _, err := b.DecodeBinary(a.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if !b.noReplay || b.log != nil {
		t.Fatalf("DisableReplay lost in round trip: noReplay=%v log=%v", b.noReplay, b.log)
	}
}

func TestAccumulatorBinaryRoundTripsNonFinite(t *testing.T) {
	t.Parallel()

	var a Accumulator
	a.Add(math.Inf(1))
	a.Add(42)
	var b Accumulator
	if _, err := b.DecodeBinary(a.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b.Max(), 1) || math.Float64bits(a.Mean()) != math.Float64bits(b.Mean()) {
		t.Fatalf("non-finite state lost: max=%v mean=%v", b.Max(), b.Mean())
	}
}

func TestAccumulatorDecodeRejectsDamage(t *testing.T) {
	t.Parallel()

	var a Accumulator
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
	}
	good := a.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":       nil,
		"bad version": append([]byte{accumulatorStateVersion + 1}, good[1:]...),
		"truncated":   good[:len(good)-3],
	}
	// An inflated log count must be rejected, not allocated.
	huge := append([]byte(nil), good...)
	huge[len(huge)-8*10-8] = 0xff
	cases["oversized log"] = huge
	for name, data := range cases {
		var b Accumulator
		if _, err := b.DecodeBinary(data); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
	}
}

// TestSketchBinaryRoundTrip covers both exact and estimation mode: the
// decoded sketch must answer, merge and evolve bit-identically.
func TestSketchBinaryRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{0, 3, 100, DefaultSketchCap, DefaultSketchCap + 500} {
		a := NewSketch(0)
		for i := 0; i < n; i++ {
			a.Add(rng.ExpFloat64() * 100)
		}
		b := NewSketch(0)
		rest, err := b.DecodeBinary(a.AppendBinary(nil))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d undecoded bytes", n, len(rest))
		}
		if a.Exact() != b.Exact() || a.N() != b.N() {
			t.Fatalf("n=%d: mode or count diverged", n)
		}
		// Drive both through the same suffix — crossing the exact/estimation
		// boundary for the small cases — and compare summaries exactly.
		for i := 0; i < DefaultSketchCap+50; i++ {
			x := rng.Float64() * 10
			a.Add(x)
			b.Add(x)
		}
		sa, sb := a.Summary(), b.Summary()
		for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.9, 0.99, 1} {
			if math.Float64bits(sa.Quantile(q)) != math.Float64bits(sb.Quantile(q)) {
				t.Fatalf("n=%d: q=%v diverged after round trip: %v vs %v", n, q, sa.Quantile(q), sb.Quantile(q))
			}
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("n=%d: summaries diverged after round trip", n)
		}
	}
}

func TestSketchDecodeRejectsDamage(t *testing.T) {
	t.Parallel()

	a := NewSketch(0)
	for i := 0; i < 2000; i++ {
		a.Add(float64(i % 37))
	}
	good := a.AppendBinary(nil)
	// A sample count of at least 2^61 once passed the length check, whose
	// 8*n wrapped, and made the allocation panic.
	huge := []byte{sketchStateVersion}
	huge = appendI64(huge, 1<<62) // cap: admits the count below
	huge = appendI64(huge, 1<<62) // n
	huge = appendF64(huge, 0)     // min
	huge = appendF64(huge, 0)     // max
	huge = appendF64s(huge, nil)  // tracked
	huge = append(huge, 0)        // exact mode
	huge = appendI64(huge, 1<<61) // sample count: 8*n wraps to 0
	huge = appendF64(huge, 1)
	for name, data := range map[string][]byte{
		"empty":             nil,
		"bad version":       append([]byte{sketchStateVersion + 1}, good[1:]...),
		"truncated":         good[:len(good)/2],
		"huge sample count": huge,
	} {
		b := NewSketch(0)
		if _, err := b.DecodeBinary(data); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
	}
}
