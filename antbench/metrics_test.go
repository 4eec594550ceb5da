package main

import (
	"encoding/json"
	"os"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: tail must sort
	}
	return v
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		pct, value float64
		beyond     int
	}{
		{n: 100, pct: 90, value: 90, beyond: 10},
		{n: 1000, pct: 99, value: 990, beyond: 10},
		{n: 40, pct: 75, value: 30, beyond: 10},
		{n: 20, pct: 50, value: 10, beyond: 10},
		// Fewer than 20 samples: the tail is the median.
		{n: 19, pct: 50, value: 10, beyond: 9},
		{n: 4, pct: 50, value: 2.5, beyond: 2},
		{n: 1, pct: 50, value: 1, beyond: 0},
	}
	for _, c := range cases {
		pct, value, beyond := tail(seq(c.n))
		if pct != c.pct || value != c.value || beyond != c.beyond {
			t.Errorf("tail of %d samples = p%v %v (%d beyond), want p%v %v (%d beyond)",
				c.n, pct, value, beyond, c.pct, c.value, c.beyond)
		}
	}
}

func TestTailNotePrintsPercentileAndCount(t *testing.T) {
	if got, want := tailNote(seq(100)), "p90 of 100 ops, 10 beyond"; got != want {
		t.Fatalf("tailNote = %q, want %q", got, want)
	}
	if got, want := tailNote(seq(5)), "p50 of 5 ops, 2 beyond"; got != want {
		t.Fatalf("tailNote = %q, want %q", got, want)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median of nothing = %v, want 0", m)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the harness and BENCHMARK.json in
// step: the same metric names, units and order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the harness", w.Name)
		}
	}
}

func TestReportRejectsNonFiniteAndUndeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms"}}
	if _, err := report(discard{}, defs, map[string]float64{"a": 1}, nil, 1, 0, true); err != nil {
		t.Fatal(err)
	}
	inf := 1.0
	for i := 0; i < 2000; i++ {
		inf *= 10
	}
	if _, err := report(discard{}, defs, map[string]float64{"a": inf}, nil, 1, 0, true); err == nil {
		t.Fatal("an infinite value must be an error")
	}
	if _, err := report(discard{}, defs, map[string]float64{"a": 1, "b": 2}, nil, 1, 0, true); err == nil {
		t.Fatal("an undeclared metric must be an error")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
