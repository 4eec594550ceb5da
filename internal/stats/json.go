package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// quantileSummaryJSON is the stable wire form of a QuantileSummary. The
// struct keeps its query state in unexported fields, so without explicit
// marshalling a round-trip through JSON would silently drop every quantile;
// the serving layer (cmd/antserve) streams TrialStats rows as JSON and needs
// the encoding to be lossless and stable across releases. Since PR 5 the
// durable result store (internal/cache) persists TrialStats in this same
// encoding across restarts, so losslessness is load-bearing twice over: the
// round-trip must be a fixed point (sim.TestTrialStatsJSONRoundTrip) for a
// restarted server to reproduce byte-identical rows. No field may carry
// omitempty: an empty-but-non-nil exact window would encode as absent and
// decode as nil, so re-encoding would differ from the original bytes.
//
//antlint:wire
type quantileSummaryJSON struct {
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Exact bool    `json:"exact"`
	// Samples carries the sorted observations in exact mode (at most the
	// sketch cap of them); Qs/Vs carry the tracked quantiles and their P²
	// estimates in estimation mode.
	Samples []float64 `json:"samples"`
	Qs      []float64 `json:"qs"`
	Vs      []float64 `json:"vs"`
}

// MarshalJSON implements json.Marshaler.
func (s QuantileSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.wire())
}

// wire returns the summary's wire form.
func (s QuantileSummary) wire() quantileSummaryJSON {
	return quantileSummaryJSON{
		N:       s.N,
		Min:     s.Min,
		Max:     s.Max,
		Exact:   s.Exact,
		Samples: s.samples,
		Qs:      s.qs,
		Vs:      s.vs,
	}
}

// UnmarshalJSON implements json.Unmarshaler. The decoded summary answers
// Quantile exactly as the encoded one did. The result store replays these
// bytes from disk, so a payload no encoder can produce is an error, never a
// summary that answers wrong numbers (see validate).
func (s *QuantileSummary) UnmarshalJSON(data []byte) error {
	var w quantileSummaryJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := w.validate(); err != nil {
		return fmt.Errorf("stats: quantile summary: %w", err)
	}
	if w.Exact && !sort.Float64sAreSorted(w.Samples) {
		// The encoder always emits sorted samples; tolerate hand-written
		// payloads by restoring the invariant Quantile depends on.
		sort.Float64s(w.Samples)
	}
	*s = QuantileSummary{
		N:       w.N,
		Min:     w.Min,
		Max:     w.Max,
		Exact:   w.Exact,
		samples: w.Samples,
		qs:      w.Qs,
		vs:      w.Vs,
	}
	return nil
}

// validate checks the invariants every Sketch.Summary holds: a non-negative
// count and min <= max; in exact mode exactly N samples and no tracked
// quantiles; in estimation mode no samples, and tracked quantiles strictly
// increasing inside (0, 1) with estimates that never decrease; every sample
// and estimate inside [min, max].
func (w quantileSummaryJSON) validate() error {
	switch {
	case w.N < 0:
		return fmt.Errorf("negative count %d", w.N)
	case w.Min > w.Max:
		return fmt.Errorf("min %v exceeds max %v", w.Min, w.Max)
	case len(w.Qs) != len(w.Vs):
		return fmt.Errorf("%d tracked quantiles but %d estimates", len(w.Qs), len(w.Vs))
	case w.Exact && len(w.Samples) != w.N:
		return fmt.Errorf("exact mode with %d samples for %d observations", len(w.Samples), w.N)
	case w.Exact && len(w.Qs) > 0:
		return fmt.Errorf("exact mode with %d tracked quantiles", len(w.Qs))
	case !w.Exact && len(w.Samples) > 0:
		return fmt.Errorf("estimation mode with %d samples", len(w.Samples))
	}
	for _, x := range w.Samples {
		if x < w.Min || x > w.Max {
			return fmt.Errorf("sample %v outside [min, max] = [%v, %v]", x, w.Min, w.Max)
		}
	}
	prevQ, prevV := 0.0, w.Min
	for i, q := range w.Qs {
		v := w.Vs[i]
		switch {
		case q <= prevQ || q >= 1:
			return fmt.Errorf("tracked quantile %v is not strictly increasing inside (0, 1)", q)
		case v > w.Max || v < w.Min:
			return fmt.Errorf("estimate %v outside [min, max] = [%v, %v]", v, w.Min, w.Max)
		case v < prevV:
			return fmt.Errorf("estimate %v at q=%v decreases from %v", v, q, prevV)
		}
		prevQ, prevV = q, v
	}
	return nil
}

// The Accumulator and Sketch JSON forms below are complete states, not
// summaries: checkpointed sweeps (internal/sim, internal/cache) persist them
// mid-fold and resume from them. encoding/json writes every finite float64 in
// the shortest form that parses back to the same bits, so a decoded value
// continues exactly where the encoded one stopped; a non-finite value fails to
// encode, since JSON has no NaN or ±Inf. Both forms are part of sim's trial
// state, so a change to either is a change to that state and bumps its
// version there.

// accumulatorJSON is the wire form of an Accumulator.
//
//antlint:wire
type accumulatorJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON implements json.Marshaler.
func (a Accumulator) MarshalJSON() ([]byte, error) {
	return json.Marshal(accumulatorJSON{N: a.n, Mean: a.mean, M2: a.m2, Min: a.min, Max: a.max})
}

// UnmarshalJSON implements json.Unmarshaler. It rejects unknown fields, a
// negative count and a negative sum of squared deviations, which Add never
// produces and which would make Summarize report a NaN deviation; on error a
// is left unchanged.
func (a *Accumulator) UnmarshalJSON(data []byte) error {
	var w accumulatorJSON
	if err := decodeStrict(data, &w); err != nil {
		return fmt.Errorf("stats: accumulator state: %w", err)
	}
	switch {
	case w.N < 0:
		return fmt.Errorf("stats: accumulator state: negative count %d", w.N)
	case w.M2 < 0:
		return fmt.Errorf("stats: accumulator state: negative m2 %v", w.M2)
	}
	*a = Accumulator{n: w.N, mean: w.Mean, m2: w.M2, min: w.Min, max: w.Max}
	return nil
}

// sketchJSON is the wire form of a Sketch. Est is null while the sketch is
// exact, and Samples is null once it estimates. The tracked quantiles are
// defaultTracked, and each estimator's quantile, increments and count follow
// from its position and the sketch's count, so none of them is stored.
//
//antlint:wire
type sketchJSON struct {
	Cap     int       `json:"cap"`
	N       int       `json:"n"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
	Est     []p2JSON  `json:"est"`
}

// p2JSON is the wire form of one P² estimator's markers.
//
//antlint:wire
type p2JSON struct {
	N       [5]int     `json:"n"`
	NP      [5]float64 `json:"np"`
	Heights [5]float64 `json:"heights"`
}

// MarshalJSON implements json.Marshaler.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	w := sketchJSON{Cap: s.cap, N: s.n, Min: s.min, Max: s.max, Samples: s.samples}
	if s.est != nil {
		w.Est = make([]p2JSON, len(s.est))
		for i, e := range s.est {
			w.Est[i] = p2JSON{N: e.n, NP: e.np, Heights: e.heights}
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. It rejects unknown fields,
// every state Add cannot reach (see validate) and every state whose Summary
// QuantileSummary.UnmarshalJSON would reject — min above max, or a sample
// outside them — since a TrialStats built from it could not be read back;
// on error s is left unchanged.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var w sketchJSON
	if err := decodeStrict(data, &w); err != nil {
		return fmt.Errorf("stats: sketch state: %w", err)
	}
	if err := w.validate(); err != nil {
		return fmt.Errorf("stats: sketch state: %w", err)
	}
	dec := Sketch{cap: w.Cap, samples: w.Samples, n: w.N, min: w.Min, max: w.Max}
	if w.Est != nil {
		dec.est = trackedEstimators()
		for i, m := range w.Est {
			e := dec.est[i]
			e.n, e.np, e.heights, e.count = m.N, m.NP, m.Heights, w.N
		}
	}
	if err := dec.Summary().wire().validate(); err != nil {
		return fmt.Errorf("stats: sketch state: %w", err)
	}
	*s = dec
	return nil
}

// validate checks the invariants Add keeps: a cap of at least 4 (NewSketch
// clamps it) and a non-negative count; while exact, one sample per
// observation and no more than cap of them; once estimating, more
// observations than the cap, no samples and one estimator per tracked
// quantile.
func (w sketchJSON) validate() error {
	switch {
	case w.Cap < 4:
		return fmt.Errorf("cap %d below 4", w.Cap)
	case w.N < 0:
		return fmt.Errorf("negative count %d", w.N)
	case w.Est == nil && len(w.Samples) != w.N:
		return fmt.Errorf("exact mode with %d samples for %d observations", len(w.Samples), w.N)
	case w.Est == nil && w.N > w.Cap:
		return fmt.Errorf("exact mode with %d observations past the cap %d", w.N, w.Cap)
	case w.Est != nil && w.N <= w.Cap:
		return fmt.Errorf("estimation mode with %d observations within the cap %d", w.N, w.Cap)
	case w.Est != nil && w.Samples != nil:
		return fmt.Errorf("estimation mode with %d samples", len(w.Samples))
	case w.Est != nil && len(w.Est) != len(defaultTracked):
		return fmt.Errorf("%d estimators for %d tracked quantiles", len(w.Est), len(defaultTracked))
	}
	return nil
}

// decodeStrict decodes data into v, rejecting fields v does not declare.
// Trailing data needs no check here: encoding/json hands an UnmarshalJSON
// exactly one complete value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
