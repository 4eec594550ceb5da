package lowerbound

import (
	"context"
	"math"
	"testing"

	"antsearch/internal/core"
)

func TestConfigValidate(t *testing.T) {
	t.Parallel()

	good := Config{
		Factory: core.Factory(),
		Scales:  []int{2, 4},
		Horizon: 100,
		Trials:  1,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Scales: []int{2}, Horizon: 100, Trials: 1},
		{Factory: core.Factory(), Horizon: 100, Trials: 1},
		{Factory: core.Factory(), Scales: []int{0}, Horizon: 100, Trials: 1},
		{Factory: core.Factory(), Scales: []int{2}, Horizon: 1, Trials: 1},
		{Factory: core.Factory(), Scales: []int{2}, Horizon: 100, Trials: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := Measure(context.Background(), cfg); err == nil {
			t.Errorf("Measure accepted bad config %d", i)
		}
	}
}

func TestConfigDefaultAnnuli(t *testing.T) {
	t.Parallel()

	cfg := Config{Horizon: 40}
	annuli := cfg.annuli()
	if len(annuli) == 0 {
		t.Fatal("no default annuli")
	}
	for i := 1; i < len(annuli); i++ {
		if annuli[i] != 2*annuli[i-1] {
			t.Errorf("default annuli are not geometric: %v", annuli)
		}
	}
	if annuli[len(annuli)-1] > 40 {
		t.Errorf("annuli exceed the horizon: %v", annuli)
	}
}

func TestMeasureCoverageInvariants(t *testing.T) {
	t.Parallel()

	const horizon = 600
	factory, err := core.UniformFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Measure(context.Background(), Config{
		Factory: factory,
		Scales:  []int{1, 4},
		Horizon: horizon,
		Trials:  2,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scales) != 2 {
		t.Fatalf("got %d scale reports, want 2", len(report.Scales))
	}
	for _, sr := range report.Scales {
		if sr.Horizon != horizon {
			t.Errorf("scale %d horizon = %d", sr.K, sr.Horizon)
		}
		// An agent can never visit more distinct nodes than it has steps
		// (plus the origin).
		if sr.PerAgentDistinct.Mean > float64(horizon)+1 {
			t.Errorf("k=%d: per-agent coverage %.1f exceeds the step budget %d",
				sr.K, sr.PerAgentDistinct.Mean, horizon)
		}
		if sr.PerAgentDistinct.Mean <= 1 {
			t.Errorf("k=%d: implausibly small coverage %.1f", sr.K, sr.PerAgentDistinct.Mean)
		}
		if sr.Overlap < 0 || sr.Overlap > 1 {
			t.Errorf("k=%d: overlap %.2f outside [0,1]", sr.K, sr.Overlap)
		}
		if len(sr.AnnulusPerAgent) != len(report.Annuli) || len(sr.AnnulusCovered) != len(report.Annuli) {
			t.Fatalf("k=%d: annulus slices have wrong length", sr.K)
		}
		for i, frac := range sr.AnnulusCovered {
			if frac < 0 || frac > 1 {
				t.Errorf("k=%d annulus %d: covered fraction %.2f outside [0,1]", sr.K, i, frac)
			}
		}
		// The per-agent charge Σ_i (per-agent distinct nodes in annulus i)
		// summed over all annuli cannot exceed the total per-agent coverage.
		total := 0.0
		for _, charge := range sr.AnnulusPerAgent {
			total += charge
		}
		if total > sr.PerAgentDistinct.Mean+1e-9 {
			t.Errorf("k=%d: charge sum %.1f exceeds per-agent coverage %.1f",
				sr.K, total, sr.PerAgentDistinct.Mean)
		}
	}

	// More agents cover more of the nearby annuli collectively.
	if report.Scales[1].AnnulusCovered[0] < report.Scales[0].AnnulusCovered[0] {
		t.Errorf("4 agents cover less of the inner annulus (%.2f) than 1 agent (%.2f)",
			report.Scales[1].AnnulusCovered[0], report.Scales[0].AnnulusCovered[0])
	}
}

func TestDivergenceSeries(t *testing.T) {
	t.Parallel()

	series := DivergenceSeries([]float64{2, 4, 0, 8})
	want := []float64{0.5, 0.75, 0.75, 0.875}
	for i := range want {
		if math.Abs(series[i]-want[i]) > 1e-12 {
			t.Errorf("series[%d] = %v, want %v", i, series[i], want[i])
		}
	}
	if got := DivergenceSeries(nil); len(got) != 0 {
		t.Errorf("empty input should give empty output, got %v", got)
	}
}

func TestLogSeriesReference(t *testing.T) {
	t.Parallel()

	scales := []int{2, 4, 8, 16}
	ref := LogSeriesReference(scales, 1)
	if len(ref) != len(scales) {
		t.Fatalf("got %d entries, want %d", len(ref), len(scales))
	}
	// Partial sums of 1/log2(k) = 1 + 1/2 + 1/3 + 1/4.
	want := 1.0 + 0.5 + 1.0/3 + 0.25
	if math.Abs(ref[len(ref)-1]-want) > 1e-12 {
		t.Errorf("last partial sum = %v, want %v", ref[len(ref)-1], want)
	}
	// The reference series keeps growing (that is the whole point: a
	// harmonic-like series diverges).
	for i := 1; i < len(ref); i++ {
		if ref[i] <= ref[i-1] {
			t.Errorf("reference series not increasing at %d", i)
		}
	}
	// Scale k=1 contributes nothing (log 1 = 0 is skipped).
	one := LogSeriesReference([]int{1}, 1)
	if one[0] != 0 {
		t.Errorf("k=1 contribution = %v, want 0", one[0])
	}
}
