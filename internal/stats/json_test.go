package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestQuantileSummaryJSONRoundTrip pins the serving layer's contract: a
// QuantileSummary survives JSON encoding losslessly in both exact and
// estimation mode — every quantile query answers identically before and
// after the round trip.
func TestQuantileSummaryJSONRoundTrip(t *testing.T) {
	t.Parallel()

	exact := NewSketch(64)
	estimating := NewSketch(64)
	for i := 0; i < 50; i++ {
		exact.Add(float64(i * i % 37))
	}
	for i := 0; i < 500; i++ {
		estimating.Add(float64(i * i % 101))
	}
	if exact.Summary().Exact != true || estimating.Summary().Exact != false {
		t.Fatal("test setup: expected one exact and one estimating sketch")
	}

	for name, sum := range map[string]QuantileSummary{
		"exact":      exact.Summary(),
		"estimating": estimating.Summary(),
		"empty":      NewSketch(0).Summary(),
	} {
		data, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var got QuantileSummary
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if got.N != sum.N || got.Min != sum.Min || got.Max != sum.Max || got.Exact != sum.Exact {
			t.Errorf("%s: header fields changed: %+v vs %+v", name, got, sum)
		}
		for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			if a, b := got.Quantile(q), sum.Quantile(q); a != b {
				t.Errorf("%s: Quantile(%v) = %v after round trip, want %v", name, q, a, b)
			}
		}
	}
}

// TestQuantileSummaryUnmarshalRejectsMismatchedTracks pins the decoder's
// boundary: every payload no Sketch.Summary can produce is rejected, naming
// the broken invariant, instead of decoding into a summary that answers
// wrong quantiles.
func TestQuantileSummaryUnmarshalRejectsMismatchedTracks(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		name, payload, want string
	}{
		{"mismatched tracks", `{"n":10,"qs":[0.5],"vs":[1,2]}`, "1 tracked quantiles but 2 estimates"},
		{"negative n", `{"n":-1,"min":0,"max":0,"exact":false,"samples":null,"qs":null,"vs":null}`, "negative count"},
		{"exact window shorter than n", `{"n":3,"min":1,"max":9,"exact":true,"samples":[5],"qs":null,"vs":null}`, "1 samples for 3 observations"},
		{"exact window longer than n", `{"n":1,"min":1,"max":9,"exact":true,"samples":[1,9],"qs":null,"vs":null}`, "2 samples for 1 observations"},
		{"min above max", `{"n":1,"min":9,"max":1,"exact":true,"samples":[5],"qs":null,"vs":null}`, "min 9 exceeds max 1"},
		{"samples in estimation mode", `{"n":2000,"min":0,"max":9,"exact":false,"samples":[5],"qs":[0.5],"vs":[4]}`, "estimation mode with 1 samples"},
		{"tracks in exact mode", `{"n":1,"min":5,"max":5,"exact":true,"samples":[5],"qs":[0.5],"vs":[5]}`, "exact mode with 1 tracked"},
		{"sample below min", `{"n":2,"min":1,"max":9,"exact":true,"samples":[0,5],"qs":null,"vs":null}`, "sample 0 outside"},
		{"sample above max", `{"n":2,"min":1,"max":9,"exact":true,"samples":[5,10],"qs":null,"vs":null}`, "sample 10 outside"},
		{"estimate above max", `{"n":2000,"min":1,"max":9,"exact":false,"samples":null,"qs":[0.5],"vs":[10]}`, "estimate 10 outside"},
		{"estimate below min", `{"n":2000,"min":1,"max":9,"exact":false,"samples":null,"qs":[0.5],"vs":[0]}`, "estimate 0 outside"},
		{"tracked quantile at 0", `{"n":2000,"min":1,"max":9,"exact":false,"samples":null,"qs":[0,0.5],"vs":[1,5]}`, "tracked quantile 0 "},
		{"tracked quantile at 1", `{"n":2000,"min":1,"max":9,"exact":false,"samples":null,"qs":[0.5,1],"vs":[5,9]}`, "tracked quantile 1 "},
		{"repeated tracked quantile", `{"n":2000,"min":1,"max":9,"exact":false,"samples":null,"qs":[0.5,0.5],"vs":[5,5]}`, "tracked quantile 0.5 "},
		{"decreasing tracked quantiles", `{"n":2000,"min":1,"max":9,"exact":false,"samples":null,"qs":[0.9,0.1],"vs":[5,6]}`, "tracked quantile 0.1 "},
		{"decreasing estimates", `{"n":2000,"min":1,"max":9,"exact":false,"samples":null,"qs":[0.25,0.75],"vs":[5,4]}`, "estimate 4 at q=0.75 decreases"},
	} {
		var s QuantileSummary
		err := json.Unmarshal([]byte(tc.payload), &s)
		if err == nil {
			t.Errorf("%s: decoded into %+v, want an error", tc.name, s)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// FuzzQuantileSummaryJSON feeds arbitrary bytes to the decoder the result
// store replays from disk. Nothing may panic, an accepted payload must
// re-encode to a fixed point, and its Quantile must never decrease as q
// grows nor leave [Min, Max].
func FuzzQuantileSummaryJSON(f *testing.F) {
	exact, estimating := NewSketch(64), NewSketch(64)
	for i := 0; i < 50; i++ {
		exact.Add(float64(i * i % 37))
	}
	for i := 0; i < 500; i++ {
		estimating.Add(float64(i * i % 101))
	}
	for _, sum := range []QuantileSummary{NewSketch(0).Summary(), exact.Summary(), estimating.Summary()} {
		data, err := json.Marshal(sum)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s QuantileSummary
		if json.Unmarshal(data, &s) != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		var again QuantileSummary
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoding %s is rejected: %v", enc, err)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
		// Probe a uniform grid and each tracked quantile, each with its
		// floating-point neighbours: rounding errors show between adjacent
		// q, and the interpolation changes pieces at tracked quantiles.
		var probes []float64
		for i := 0; i <= 64; i++ {
			probes = append(probes, float64(i)/64)
		}
		probes = append(probes, s.qs...)
		for _, q := range append([]float64(nil), probes...) {
			probes = append(probes, math.Nextafter(q, 0), math.Nextafter(q, 1))
		}
		sort.Float64s(probes)
		prev := math.Inf(-1)
		for _, q := range probes {
			v := s.Quantile(q)
			if !(v >= prev) {
				t.Fatalf("Quantile(%v) = %v after %v: decreasing in q for %s", q, v, prev, enc)
			}
			if s.N > 0 && (v < s.Min || v > s.Max) {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v] for %s", q, v, s.Min, s.Max, enc)
			}
			prev = v
		}
	})
}

// TestAccumulatorJSONRoundTrip pins the state codec's core guarantee: a
// decoded accumulator is indistinguishable from the original — not just in
// its summary, but in how it behaves under further Adds.
func TestAccumulatorJSONRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{0, 1, 5, 1000} {
		var a Accumulator
		for i := 0; i < n; i++ {
			a.Add(rng.NormFloat64() * 1e3)
		}
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		var b Accumulator
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if again, _ := json.Marshal(b); !bytes.Equal(again, data) {
			t.Fatalf("n=%d: decoded accumulator re-encodes to %s, want %s", n, again, data)
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

// TestStateEncodeRejectsNonFinite pins the one state JSON cannot carry: an
// accumulator or sketch holding +Inf fails to encode and writes nothing, so
// a checkpoint save is skipped instead of persisting a state that would not
// decode. The sweep engine never gets here (times are integers and NaN
// ratios are dropped before they are added).
func TestStateEncodeRejectsNonFinite(t *testing.T) {
	t.Parallel()

	var a Accumulator
	a.Add(42)
	a.Add(math.Inf(1))
	exact, estimating := NewSketch(0), NewSketch(4)
	for i := 0; i < 6; i++ {
		exact.Add(float64(i))
		estimating.Add(float64(i))
	}
	exact.Add(math.Inf(1))
	estimating.Add(math.Inf(1))
	for name, v := range map[string]any{"accumulator": a, "exact sketch": exact, "estimating sketch": estimating} {
		if data, err := json.Marshal(v); err == nil || len(data) != 0 {
			t.Errorf("%s: encoded a non-finite state to %q (err %v), want an error and no bytes", name, data, err)
		}
	}
}

func TestAccumulatorDecodeRejectsDamage(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		name, payload, want string
	}{
		{"empty", ``, "unexpected end"},
		{"truncated", `{"n":10,"mean":4.5,"m2":82.5,"min":0,`, "unexpected end"},
		{"trailing data", `{"n":10,"mean":4.5,"m2":82.5,"min":0,"max":9} 0`, "after top-level value"},
		{"negative count", `{"n":-1,"mean":0,"m2":0,"min":0,"max":0}`, "negative count -1"},
		{"negative m2", `{"n":10,"mean":4.5,"m2":-82.5,"min":0,"max":9}`, "negative m2 -82.5"},
		{"unknown field", `{"n":10,"mean":4.5,"m2":82.5,"min":0,"max":9,"sum":45}`, `unknown field "sum"`},
		{"fractional count", `{"n":1.5,"mean":0,"m2":0,"min":0,"max":0}`, "cannot unmarshal number 1.5"},
	} {
		b := Accumulator{n: 7}
		err := json.Unmarshal([]byte(tc.payload), &b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
		if b != (Accumulator{n: 7}) {
			t.Errorf("%s: a rejected state changed the accumulator to %+v", tc.name, b)
		}
	}
}

// TestSketchJSONRoundTrip covers both exact and estimation mode: the decoded
// sketch must re-encode to the same bytes and answer and evolve
// bit-identically.
func TestSketchJSONRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{0, 3, 100, DefaultSketchCap, DefaultSketchCap + 500} {
		a := NewSketch(0)
		for i := 0; i < n; i++ {
			a.Add(rng.ExpFloat64() * 100)
		}
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		b := NewSketch(0)
		if err := json.Unmarshal(data, b); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if again, _ := json.Marshal(b); !bytes.Equal(again, data) {
			t.Fatalf("n=%d: decoded sketch re-encodes differently", n)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: decoded sketch differs from the original", n)
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

	// est renders the first k estimators of a sketch of cap 4 that has
	// seen the six observations 0..5.
	estimating := NewSketch(4)
	for i := 0; i < 6; i++ {
		estimating.Add(float64(i))
	}
	var w sketchJSON
	if data, err := json.Marshal(estimating); err != nil || json.Unmarshal(data, &w) != nil {
		t.Fatalf("fixture: %v", err)
	}
	est := func(k int) string {
		data, err := json.Marshal(w.Est[:k])
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, tc := range []struct {
		name, payload, want string
	}{
		{"empty", ``, "unexpected end"},
		{"truncated", `{"cap":8,"n":2,"min":1,"max":2,"samples":[1,`, "unexpected end"},
		{"trailing data", `{"cap":8,"n":0,"min":0,"max":0,"samples":null,"est":null}}`, "after top-level value"},
		{"unknown field", `{"cap":8,"n":0,"min":0,"max":0,"samples":null,"est":null,"tracked":[0.5]}`, `unknown field "tracked"`},
		{"unknown estimator field", `{"cap":4,"n":6,"min":0,"max":5,"samples":null,"est":[{"q":0.5}]}`, `unknown field "q"`},
		{"cap below 4", `{"cap":3,"n":0,"min":0,"max":0,"samples":null,"est":null}`, "cap 3 below 4"},
		{"negative count", `{"cap":8,"n":-1,"min":0,"max":0,"samples":null,"est":null}`, "negative count -1"},
		{"samples short of n", `{"cap":8,"n":3,"min":1,"max":2,"samples":[1,2],"est":null}`, "2 samples for 3 observations"},
		{"samples past n", `{"cap":8,"n":1,"min":1,"max":2,"samples":[1,2],"est":null}`, "2 samples for 1 observations"},
		{"exact past the cap", `{"cap":4,"n":5,"min":0,"max":4,"samples":[0,1,2,3,4],"est":null}`, "exact mode with 5 observations past the cap 4"},
		{"estimating within the cap", `{"cap":8,"n":6,"min":0,"max":5,"samples":null,"est":` + est(8) + `}`, "estimation mode with 6 observations within the cap 8"},
		{"estimating with samples", `{"cap":4,"n":6,"min":0,"max":5,"samples":[0],"est":` + est(8) + `}`, "estimation mode with 1 samples"},
		{"too few estimators", `{"cap":4,"n":6,"min":0,"max":5,"samples":null,"est":` + est(7) + `}`, "7 estimators for 8 tracked quantiles"},
		{"no estimators", `{"cap":4,"n":6,"min":0,"max":5,"samples":null,"est":[]}`, "0 estimators for 8 tracked quantiles"},
		// States whose summary QuantileSummary.UnmarshalJSON rejects.
		{"min above max", `{"cap":8,"n":2,"min":30,"max":20,"samples":[20,30],"est":null}`, "min 30 exceeds max 20"},
		{"empty with min above max", `{"cap":8,"n":0,"min":30,"max":20,"samples":[],"est":null}`, "min 30 exceeds max 20"},
		{"sample below min", `{"cap":8,"n":2,"min":1,"max":2,"samples":[0,2],"est":null}`, "sample 0 outside [min, max]"},
		{"sample above max", `{"cap":8,"n":2,"min":1,"max":2,"samples":[1,3],"est":null}`, "sample 3 outside [min, max]"},
		{"estimating with min above max", `{"cap":4,"n":6,"min":5,"max":0,"samples":null,"est":` + est(8) + `}`, "min 5 exceeds max 0"},
	} {
		b := NewSketch(0)
		err := json.Unmarshal([]byte(tc.payload), b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
		if !reflect.DeepEqual(b, NewSketch(0)) {
			t.Errorf("%s: a rejected state changed the sketch", tc.name)
		}
	}
	// Undamaged, the fixture decodes.
	good := `{"cap":4,"n":6,"min":0,"max":5,"samples":null,"est":` + est(8) + `}`
	if err := json.Unmarshal([]byte(good), NewSketch(0)); err != nil {
		t.Fatalf("the undamaged fixture is rejected: %v", err)
	}
}
