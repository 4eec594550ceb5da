package stats

import (
	"bytes"
	"encoding/json"
	"math"
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
