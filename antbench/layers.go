package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"antsearch/internal/adversary"
	"antsearch/internal/parallel"
	"antsearch/internal/sim"
	"antsearch/internal/stats"
	"antsearch/internal/xrand"
)

// kindTotals sums the spans of each kind: count, total duration and total
// self time, all in nanoseconds.
type kindTotals struct {
	n         [numSpanKinds]int
	dur, self [numSpanKinds]float64
}

func totals(spans []span) kindTotals {
	var t kindTotals
	self := selfTimes(spans)
	for _, s := range spans {
		t.n[s.kind]++
		t.dur[s.kind] += float64(s.dur())
		t.self[s.kind] += float64(self[s.id])
	}
	return t
}

// per divides, reading 0 for an empty denominator.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func meanLatency(ops []op) float64 {
	var sum float64
	for _, o := range ops {
		sum += ms(o.lastByte)
	}
	return per(sum, len(ops))
}

// chunkIdle sums, over parallel.Map chunks, the slowest cell's time minus
// each cell's time: the cores a chunk's barrier leaves idle.
func chunkIdle(spans []span) float64 {
	cells := map[int32][]int64{}
	for _, s := range spans {
		if s.kind == spanCell {
			cells[s.parent] = append(cells[s.parent], s.dur())
		}
	}
	var idle float64
	for _, ds := range cells {
		slowest := ds[0]
		for _, d := range ds {
			slowest = max(slowest, d)
		}
		for _, d := range ds {
			idle += float64(slowest - d)
		}
	}
	return idle
}

// layerMetrics fills the per-layer metrics of a serving workload from the
// HTTP window's counters and the in-process passes, prints the residual
// table, and runs the sim.Run replay probe. It returns failed checks.
func layerMetrics(ctx context.Context, b *bench, v map[string]float64, win window, plain, traced inprocRun) ([]string, error) {
	var problems []string
	ops := len(traced.ops)
	t := totals(traced.spans)
	svc := traced.svc

	httpMs, plainMs, tracedMs := meanLatency(win.ops), meanLatency(plain.ops), meanLatency(traced.ops)
	v["trace.e2e_op_ms"] = httpMs
	v["trace.inproc_op_ms"] = plainMs
	v["trace.overhead_ms_per_op"] = tracedMs - plainMs
	v["antserve.residual_ms_per_op"] = httpMs - plainMs
	var selfSum float64
	for k := spanOp; k < numSpanKinds; k++ {
		selfSum += t.self[k]
	}
	v["trace.layer_self_sum_ms_per_op"] = per(selfSum, ops) / 1e6

	progress := 0
	for _, o := range win.ops {
		progress += bytes.Count(o.body, progressPrefix)
	}
	v["antserve.encode_us_per_row"] = per(t.dur[spanEncode], t.n[spanEncode]) / 1e3
	v["antserve.bytes_per_row"] = per(float64(svc.rowBytes), svc.rows)
	v["antserve.progress_rows_per_op"] = per(float64(progress), len(win.ops))
	v["scenario.expand_us_per_op"] = per(t.dur[spanCells]+t.dur[spanSplit], ops) / 1e3
	v["scenario.cells_per_op"] = per(float64(svc.rows), ops)
	v["scenario.run_one_ms_per_cell"] = per(t.dur[spanRunOne], t.n[spanRunOne]) / 1e6
	v["scenario.chunk_idle_ms_per_op"] = per(chunkIdle(traced.spans), ops) / 1e6
	v["cache.key_us_per_cell"] = per(t.dur[spanKey], t.n[spanKey]) / 1e3
	v["cache.do_self_us_per_cell"] = per(t.self[spanDo], t.n[spanDo]) / 1e3

	d := win.delta
	v["cache.hits"] = float64(d.hits)
	v["cache.misses"] = float64(d.misses)
	v["cache.joined"] = float64(d.joined)
	v["cache.evictions"] = float64(d.evictions)
	v["cache.hit_ratio"] = per(float64(d.hits), int(d.hits+d.misses+d.joined))
	v["cache.store.append_us"] = per(t.dur[spanAppend], t.n[spanAppend]) / 1e3
	v["cache.store.appends"] = float64(d.persisted)
	v["cache.store.errors"] = float64(d.storeErrors)
	v["cache.store.retries"] = float64(d.storeRetries)
	v["cache.store.bytes_per_append"] = per(float64(traced.storeBytes), t.n[spanAppend])
	v["cache.store.loaded"] = float64(d.loaded)
	for _, s := range traced.loadSpans {
		if s.kind == spanStoreLoad {
			v["cache.store.load_ms"] = float64(s.dur()) / 1e6
		}
	}
	v["cache.checkpoint.saves"] = float64(d.saves)
	v["cache.checkpoint.save_us"] = per(t.dur[spanCkptSave], t.n[spanCkptSave]) / 1e3
	v["cache.checkpoint.bytes_per_save"] = per(float64(traced.ckptBytes), t.n[spanCkptSave])
	v["cache.checkpoint.errors"] = float64(d.ckptErrors)
	v["cache.checkpoint.load_us"] = per(t.dur[spanCkptLoad], t.n[spanCkptLoad]) / 1e3
	if uint64(t.n[spanAppend]) != d.persisted || uint64(t.n[spanCkptSave]) != d.saves {
		problems = append(problems, fmt.Sprintf("in-process traced pass appended %d records and saved %d checkpoints, the server %d and %d",
			t.n[spanAppend], t.n[spanCkptSave], d.persisted, d.saves))
	}

	// Engine figures come from the cells the traced pass computed.
	busy := map[string]time.Duration{}
	trials := map[string]int{}
	var found, all, shards, computed int
	for _, c := range svc.cells {
		if !c.computed {
			continue
		}
		busy[c.cell.Scenario] += c.runOne
		trials[c.cell.Scenario] += c.cell.Trials
		found += c.stats.Found
		all += c.stats.Trials
		shards += c.shards
		computed++
	}
	for _, s := range traceScenarios {
		v["sim.trial_us."+s] = per(float64(busy[s]), trials[s]) / 1e3
	}
	v["sim.found_ratio"] = per(float64(found), all)
	v["sim.shards_per_cell"] = per(float64(shards), computed)
	if computed > 0 {
		probe, err := replayProbe(ctx, svc.cells)
		if err != nil {
			return problems, err
		}
		problems = append(problems, probe.problems...)
		for _, s := range traceScenarios {
			v["sim.run_us_per_trial."+s] = per(float64(probe.engine[s]), probe.trials[s]) / 1e3
		}
		v["sim.fold_us_per_trial"] = per(float64(probe.fold), probe.total) / 1e3
	}

	printResidual(b.out, t, ops, tracedMs, plainMs, httpMs, "HTTP (antserve)")
	return problems, nil
}

// printResidual prints the layer table: each traced call's self time per op
// in the traced pass, with its layer, the sum, and beside them the untraced
// in-process and the end-to-end op latency. Cells run side by side, so the
// sum of self times can exceed the wall-clock latency.
func printResidual(w io.Writer, t kindTotals, ops int, tracedMs, plainMs, e2eMs float64, e2eName string) {
	fmt.Fprintf(w, "residual table (ms per op, %d ops):\n", ops)
	var sum float64
	for k := spanOp; k < numSpanKinds; k++ {
		if t.n[k] == 0 {
			continue
		}
		x := per(t.self[k], ops) / 1e6
		sum += x
		fmt.Fprintf(w, "  self %-24s %-17s %12.4f\n", spanNames[k], spanLayers[k], x)
	}
	fmt.Fprintf(w, "  %-47s %12.4f\n", "layer self-time sum", sum)
	fmt.Fprintf(w, "  %-47s %12.4f\n", "in-process traced latency", tracedMs)
	fmt.Fprintf(w, "  %-47s %12.4f  (tracing overhead %.4f)\n", "in-process untraced latency", plainMs, tracedMs-plainMs)
	fmt.Fprintf(w, "  %-47s %12.4f  (residual %.4f)\n", e2eName+" latency", e2eMs, e2eMs-plainMs)
}

// probeResult is what the sim.Run replay probe measured.
type probeResult struct {
	engine   map[string]time.Duration
	trials   map[string]int
	fold     time.Duration
	total    int
	problems []string
}

// replayProbe replays every trial of the computed cells of the traced
// scenarios through sim.Run, the engine kernel below MonteCarlo, and folds
// each cell's results with TrialAccumulator in shards of at most
// stats.MergeReplayCap trials. The fold must reproduce RunOne's aggregate
// byte for byte. Cells replay side by side on the pinned cores; each cell's
// times are its own goroutine's.
func replayProbe(ctx context.Context, cells []cellRecord) (probeResult, error) {
	p := probeResult{engine: map[string]time.Duration{}, trials: map[string]int{}}
	var todo []cellRecord
	for _, c := range cells {
		if c.computed && slices.Contains(traceScenarios, c.cell.Scenario) {
			todo = append(todo, c)
		}
	}
	var mu sync.Mutex
	err := parallel.ForEach(ctx, len(todo), pinnedProcs, func(i int) error {
		var one probeResult
		one.engine, one.trials = map[string]time.Duration{}, map[string]int{}
		err := replayCell(&one, todo[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			p.problems = append(p.problems, err.Error())
		}
		for s, d := range one.engine {
			p.engine[s] += d
			p.trials[s] += one.trials[s]
		}
		p.fold += one.fold
		p.total += one.total
		return nil
	})
	return p, err
}

func replayCell(p *probeResult, c cellRecord) error {
	cell := c.cell
	ring, err := adversary.NewUniformRing(cell.D)
	if err != nil {
		return err
	}
	alg := cell.Factory(cell.K)
	var total *sim.TrialAccumulator
	for lo := 0; lo < cell.Trials; lo += stats.MergeReplayCap {
		hi := min(lo+stats.MergeReplayCap, cell.Trials)
		results := make([]sim.Result, 0, hi-lo)
		start := time.Now()
		for trial := lo; trial < hi; trial++ {
			treasure := ring.Place(trial, xrand.NewStream(cell.Seed, xrand.PathPlacement, uint64(trial)))
			r, err := sim.Run(sim.Instance{
				Algorithm: alg, NumAgents: cell.K, Treasure: treasure, Faults: cell.Faults,
			}, sim.Options{Seed: xrand.DeriveSeed(cell.Seed, xrand.PathTrial, uint64(trial)), MaxTime: cell.MaxTime})
			if err != nil {
				return fmt.Errorf("replaying %s k=%d D=%d trial %d: %w", cell.Scenario, cell.K, cell.D, trial, err)
			}
			results = append(results, r)
		}
		p.engine[cell.Scenario] += time.Since(start)
		start = time.Now()
		acc := sim.NewTrialAccumulator(cell.K, ring.Distance())
		for _, r := range results {
			acc.Add(r)
		}
		if total == nil {
			total = acc
		} else {
			total.Merge(acc)
		}
		p.fold += time.Since(start)
	}
	start := time.Now()
	st := total.Stats()
	p.fold += time.Since(start)
	p.trials[cell.Scenario] += cell.Trials
	p.total += cell.Trials
	got, err := json.Marshal(st)
	if err != nil {
		return err
	}
	want, err := json.Marshal(c.stats)
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("sim.Run replay of %s k=%d D=%d seed=%d folds to a different aggregate than RunOne",
			cell.Scenario, cell.K, cell.D, cell.Seed)
	}
	return nil
}
