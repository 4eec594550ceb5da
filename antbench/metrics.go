package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs. Every workload reports all of them; README.md gives the meaning per
// workload where it differs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"cells_per_s", "1/s"},
	{"trials_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// traceScenarios are the scenarios whose engine cost gets a metric of its
// own: the four of the cold-cells grid.
var traceScenarios = []string{"known-k", "uniform", "harmonic-restart", "known-k-faulty"}

// perLayer are the metrics of single layers, printed by traced runs. A layer
// a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"antserve.residual_ms_per_op", "ms"},
		{"antserve.encode_us_per_row", "us"},
		{"antserve.bytes_per_row", "bytes"},
		{"antserve.progress_rows_per_op", "count"},
		{"scenario.expand_us_per_op", "us"},
		{"scenario.cells_per_op", "count"},
		{"scenario.run_one_ms_per_cell", "ms"},
		{"scenario.chunk_idle_ms_per_op", "ms"},
		{"cache.key_us_per_cell", "us"},
		{"cache.do_self_us_per_cell", "us"},
		{"cache.hits", "count"},
		{"cache.misses", "count"},
		{"cache.joined", "count"},
		{"cache.evictions", "count"},
		{"cache.hit_ratio", "ratio"},
		{"cache.store.append_us", "us"},
		{"cache.store.appends", "count"},
		{"cache.store.errors", "count"},
		{"cache.store.retries", "count"},
		{"cache.store.bytes_per_append", "bytes"},
		{"cache.store.load_ms", "ms"},
		{"cache.store.loaded", "count"},
		{"cache.checkpoint.saves", "count"},
		{"cache.checkpoint.save_us", "us"},
		{"cache.checkpoint.bytes_per_save", "bytes"},
		{"cache.checkpoint.errors", "count"},
		{"cache.checkpoint.load_us", "us"},
	}
	for _, s := range traceScenarios {
		defs = append(defs, metricDef{"sim.trial_us." + s, "us"})
	}
	for _, s := range traceScenarios {
		defs = append(defs, metricDef{"sim.run_us_per_trial." + s, "us"})
	}
	defs = append(defs,
		metricDef{"sim.fold_us_per_trial", "us"},
		metricDef{"sim.shards_per_cell", "count"},
		metricDef{"sim.found_ratio", "ratio"},
		metricDef{"sim.exact_us_per_trial", "us"},
	)
	for i := 1; i <= 11; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("experiments.E%02d_ms", i), "ms"})
	}
	return append(defs,
		metricDef{"experiments.checks_failed", "count"},
		metricDef{"trace.e2e_op_ms", "ms"},
		metricDef{"trace.inproc_op_ms", "ms"},
		metricDef{"trace.overhead_ms_per_op", "ms"},
		metricDef{"trace.layer_self_sum_ms_per_op", "ms"},
	)
}()

// result is the benchmark's verdict, printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills a result from measured values, taking every metric of defs
// (missing ones read 0), and prints the human-readable table before the JSON
// line. Non-finite values are an error: they would make the JSON invalid.
func report(w io.Writer, defs []metricDef, values map[string]float64, notes map[string]string, attempted, failed int, correct bool) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		line := fmt.Sprintf("  %-34s %16.6g %s", d.name, v, d.unit)
		if n := notes[d.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	for name := range values {
		if !known[name] {
			return res, fmt.Errorf("internal: metric %s measured but not declared", name)
		}
	}
	return res, nil
}

// printResult writes the result as one JSON line.
func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks. The harness keeps its own order
// statistics rather than using internal/stats, so that no change to the
// program can change how it is measured.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median returns the median of values (0 for none).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile that has at least tailMinBeyond samples
// beyond it, the value there, and how many samples lie beyond. With n samples
// that is percentile 100·(1 − 10/n): the 11th-largest sample. The percentile
// never drops below the median, so with fewer than 20 samples the tail is
// the median and fewer than ten samples lie beyond it.
func tail(values []float64) (pct, value float64, beyond int) {
	n := len(values)
	if n == 0 {
		return 50, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n < 2*tailMinBeyond {
		return 50, quantile(s, 0.5), n / 2
	}
	idx := n - 1 - tailMinBeyond
	return 100 * float64(idx+1) / float64(n), s[idx], tailMinBeyond
}

// tailNote describes a tail value for the printed table.
func tailNote(values []float64) string {
	pct, _, beyond := tail(values)
	return fmt.Sprintf("p%.4g of %d ops, %d beyond", pct, len(values), beyond)
}
