package stats

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestAccumulatorBinaryRoundTrip pins the codec's core guarantee: a decoded
// accumulator is indistinguishable from the original — not just in its
// summary, but in how it behaves under further Adds.
func TestAccumulatorBinaryRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{0, 1, 5, 1000} {
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
		// Continue both with the same suffix; the state behind every summary
		// stat must stay bit-identical.
		for i := 0; i < 50; i++ {
			x := rng.Float64()
			a.Add(x)
			b.Add(x)
		}
		for name, pair := range map[string][2]float64{
			"mean": {a.mean, b.mean},
			"m2":   {a.m2, b.m2},
			"min":  {a.min, b.min},
			"max":  {a.max, b.max},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("n=%d: %s diverged after round trip: %v vs %v", n, name, pair[0], pair[1])
			}
		}
		if a.n != b.n {
			t.Fatalf("n=%d: n diverged: %d vs %d", n, a.n, b.n)
		}
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
	if !math.IsInf(b.max, 1) || math.Float64bits(a.mean) != math.Float64bits(b.mean) {
		t.Fatalf("non-finite state lost: max=%v mean=%v", b.max, b.mean)
	}
}

func TestAccumulatorDecodeRejectsDamage(t *testing.T) {
	t.Parallel()

	var a Accumulator
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
	}
	good := a.AppendBinary(nil)
	negative := append([]byte(nil), good...)
	negative[8] = 0x80 // the count's top byte: n < 0
	cases := map[string][]byte{
		"empty":          nil,
		"bad version":    append([]byte{accumulatorStateVersion + 1}, good[1:]...),
		"truncated":      good[:len(good)-3],
		"negative count": negative,
	}
	for name, data := range cases {
		var b Accumulator
		if _, err := b.DecodeBinary(data); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
	}
}

// TestSketchBinaryRoundTrip covers both exact and estimation mode: the
// decoded sketch must answer and evolve bit-identically.
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
		if (a.est == nil) != (b.est == nil) || a.n != b.n {
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
	// header encodes an exact-mode sketch of cap 8 holding n observations
	// and tracking qs, up to its sample section.
	header := func(n int, qs []float64) []byte {
		b := []byte{sketchStateVersion}
		b = appendI64(b, 8)
		b = appendI64(b, n)
		b = appendF64(b, 0)
		b = appendF64(b, 0)
		b = appendF64s(b, qs)
		return append(b, 0)
	}
	estimating := NewSketch(4)
	for i := 0; i < 6; i++ {
		estimating.Add(float64(i))
	}
	stale := estimating.AppendBinary(nil)
	stale[9] = 7 // n drops to 7 while every estimator has seen 6
	for name, data := range map[string][]byte{
		"empty":                nil,
		"bad version":          append([]byte{sketchStateVersion + 1}, good[1:]...),
		"truncated":            good[:len(good)/2],
		"huge sample count":    huge,
		"quantile outside 0-1": appendF64s(header(0, []float64{0.5, 1}), nil),
		"quantiles unordered":  appendF64s(header(0, []float64{0.5, 0.25}), nil),
		"samples short of n":   appendF64s(header(3, defaultTracked), []float64{1, 2}),
		"samples past the cap": appendF64s(header(9, defaultTracked), make([]float64, 9)),
		"stale estimator":      stale,
	} {
		b := NewSketch(0)
		if _, err := b.DecodeBinary(data); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
	}
}

// FuzzDecodeBinary feeds arbitrary bytes to the Accumulator and Sketch
// decoders, the stats half of every checkpoint a resuming sweep reads back.
// Decoding must never panic, an accepted state must re-encode to exactly the
// bytes it was decoded from (a fixed point of decode and encode), and the
// decoded value must take further observations and answer queries without
// panicking. The seeds are real states: accumulators, and sketches in exact
// mode and in estimation mode.
func FuzzDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 3, 2 * DefaultSketchCap} {
		var a Accumulator
		s := NewSketch(0)
		for i := 0; i < n; i++ {
			x := rng.ExpFloat64() * 100
			a.Add(x)
			s.Add(x)
		}
		f.Add(a.AppendBinary(nil))
		f.Add(s.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Accumulator
		if rest, err := a.DecodeBinary(data); err == nil {
			if enc := a.AppendBinary(nil); !bytes.Equal(enc, data[:len(data)-len(rest)]) {
				t.Fatalf("accumulator re-encodes to %x, decoded from %x", enc, data[:len(data)-len(rest)])
			}
			a.Add(1)
			_ = a.Summarize()
		}
		s := NewSketch(0)
		if rest, err := s.DecodeBinary(data); err == nil {
			if enc := s.AppendBinary(nil); !bytes.Equal(enc, data[:len(data)-len(rest)]) {
				t.Fatalf("sketch re-encodes to %x, decoded from %x", enc, data[:len(data)-len(rest)])
			}
			for i := 0; i <= min(s.cap, 2*DefaultSketchCap); i++ {
				s.Add(float64(i)) // crosses into estimation mode unless the cap is huge
			}
			_ = s.Summary().Quantile(0.5)
		}
	})
}
