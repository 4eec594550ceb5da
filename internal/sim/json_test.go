package sim

// The durable result store (internal/cache) persists TrialStats as JSON and
// must reproduce, after a restart, rows byte-identical to the ones it
// originally served. That turns the encoding from a convenience into a
// contract: marshal → unmarshal → marshal must be a fixed point, and a
// decoded aggregate must answer every query (means, quantiles) exactly like
// the original. These tests pin both halves on real engine output.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"antsearch/internal/core"
	"antsearch/internal/stats"
)

// TestQuantileSummaryEmptyWindowRoundTrip pins the empty-but-non-nil exact
// window as a fixed point. This state is legal on the wire (a summary that
// observed nothing), and it is exactly where omitempty on the slice fields
// would break the contract: the empty window would encode as absent, decode
// as nil, and re-encode differently — which is why quantileSummaryJSON is
// an //antlint:wire struct with no omitempty anywhere.
func TestQuantileSummaryEmptyWindowRoundTrip(t *testing.T) {
	t.Parallel()

	first := []byte(`{"n":0,"min":0,"max":0,"exact":true,"samples":[],"qs":[],"vs":[]}`)
	var q stats.QuantileSummary
	if err := json.Unmarshal(first, &q); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("empty exact window is not a round-trip fixed point:\n%s\nvs\n%s", first, second)
	}
}

func TestTrialStatsJSONRoundTrip(t *testing.T) {
	t.Parallel()

	// Enough trials to leave the exact-sample regime in the quantile
	// sketches would need > DefaultSketchCap; both regimes matter, so run a
	// small cell (exact) and lean on the sketch property tests for the P²
	// regime — the wire form is identical either way.
	st, err := MonteCarlo(context.Background(), TrialConfig{
		Factory: core.Factory(), NumAgents: 4, Distance: 8,
		Trials: 64, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	first, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TrialStats
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("TrialStats JSON is not a round-trip fixed point:\n%s\nvs\n%s", first, second)
	}

	// The decoded aggregate must answer derived queries identically — the
	// quantile summaries carry unexported state that only survives through
	// their custom (un)marshallers.
	checks := []struct {
		name string
		a, b float64
	}{
		{"MeanTime", st.MeanTime(), decoded.MeanTime()},
		{"MedianTime", st.MedianTime(), decoded.MedianTime()},
		{"MedianFoundTime", st.MedianFoundTime(), decoded.MedianFoundTime()},
		{"MeanRatio", st.MeanRatio(), decoded.MeanRatio()},
		{"TimeQuantiles.p99", st.TimeQuantiles.Quantile(0.99), decoded.TimeQuantiles.Quantile(0.99)},
		{"FoundTimeQuantiles.p10", st.FoundTimeQuantiles.Quantile(0.10), decoded.FoundTimeQuantiles.Quantile(0.10)},
	}
	for _, c := range checks {
		if c.a != c.b {
			t.Errorf("%s: %v before round-trip, %v after", c.name, c.a, c.b)
		}
	}
}
