package stats

import (
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
	return json.Marshal(quantileSummaryJSON{
		N:       s.N,
		Min:     s.Min,
		Max:     s.Max,
		Exact:   s.Exact,
		Samples: s.samples,
		Qs:      s.qs,
		Vs:      s.vs,
	})
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
