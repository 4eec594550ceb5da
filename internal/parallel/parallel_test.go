package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAllTasks(t *testing.T) {
	t.Parallel()

	const n = 200
	var mu sync.Mutex
	done := make([]bool, n)
	err := ForEach(context.Background(), n, 4, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		if done[i] {
			return fmt.Errorf("task %d ran twice", i)
		}
		done[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range done {
		if !ok {
			t.Errorf("task %d never ran", i)
		}
	}
}

func TestForEachZeroTasksAndDefaults(t *testing.T) {
	t.Parallel()

	if err := ForEach(context.Background(), 0, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Errorf("zero tasks should be a no-op, got %v", err)
	}
	if err := ForEach(context.Background(), -5, 0, nil); err != nil {
		t.Errorf("negative task count should be a no-op, got %v", err)
	}
	if err := ForEach(context.Background(), 3, 0, nil); err == nil {
		t.Error("nil function with tasks should be an error")
	}
	// workers > n and workers == 0 both work.
	var count atomic.Int64
	if err := ForEach(context.Background(), 3, 100, func(int) error { count.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 3 {
		t.Errorf("ran %d tasks, want 3", count.Load())
	}
}

func TestForEachPropagatesError(t *testing.T) {
	t.Parallel()

	sentinel := errors.New("task failed")
	var ran atomic.Int64
	err := ForEach(context.Background(), 1000, 4, func(i int) error {
		ran.Add(1)
		if i == 17 {
			return fmt.Errorf("task %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got error %v, want the sentinel", err)
	}
	// The pool stops claiming new work after the failure, so far fewer than
	// 1000 tasks ran (the exact number depends on scheduling).
	if ran.Load() == 1000 {
		t.Error("all tasks ran despite an early error; cancellation is not effective")
	}
}

func TestForEachContextCancellation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 50, 4, func(int) error {
		ran.Add(1)
		return nil
	})
	if err == nil {
		t.Error("expected an error from the cancelled context")
	}
}

func TestMapCollectsInOrder(t *testing.T) {
	t.Parallel()

	out, err := Map(context.Background(), 100, 8, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("got %d results, want 100", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapError(t *testing.T) {
	t.Parallel()

	sentinel := errors.New("broken")
	out, err := Map(context.Background(), 10, 2, func(i int) (string, error) {
		if i == 3 {
			return "", sentinel
		}
		return "ok", nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want sentinel", err)
	}
	if out != nil {
		t.Error("partial results should be discarded on error")
	}
}

func TestReduceOrderedMergesInIndexOrder(t *testing.T) {
	t.Parallel()

	for _, workers := range []int{1, 2, 4, 8} {
		const n = 300
		var got []int
		err := ReduceOrdered(context.Background(), n, workers, func(i int) (int, error) {
			// Skew the finish order: later indices tend to finish first.
			if i%7 == 0 {
				for j := 0; j < 1000; j++ {
					_ = j * j
				}
			}
			return i, nil
		}, func(v int) {
			got = append(got, v) // merge is serialized by contract: no lock needed
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: merged %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: merge order broken at position %d: got %d", workers, i, v)
			}
		}
	}
}

func TestReduceOrderedBoundsInFlightResults(t *testing.T) {
	t.Parallel()

	const (
		n       = 400
		workers = 4
	)
	var produced, merged, maxGap atomic.Int64
	err := ReduceOrdered(context.Background(), n, workers, func(i int) (int, error) {
		// Make index 0's chain slow so later results pile up against the
		// window if the bound is broken.
		if i%workers == 0 {
			for j := 0; j < 5000; j++ {
				_ = j * j
			}
		}
		gap := produced.Add(1) - merged.Load()
		for {
			old := maxGap.Load()
			if gap <= old || maxGap.CompareAndSwap(old, gap) {
				break
			}
		}
		return i, nil
	}, func(int) {
		merged.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Claims never run more than the window of workers ahead of the merge
	// frontier, so completed-but-unmerged results are bounded by workers, not
	// by n.
	if gap := maxGap.Load(); gap > workers {
		t.Errorf("observed %d completed-but-unmerged results, want at most the window %d", gap, workers)
	}
}

func TestReduceOrderedError(t *testing.T) {
	t.Parallel()

	sentinel := errors.New("shard failed")
	var merged []int
	err := ReduceOrdered(context.Background(), 500, 4, func(i int) (int, error) {
		if i == 41 {
			return 0, fmt.Errorf("task %d: %w", i, sentinel)
		}
		return i, nil
	}, func(v int) {
		merged = append(merged, v) // merge is serialized by contract: no lock needed
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the sentinel", err)
	}
	// Merges cover exactly the indices below the failing one, so a caller
	// that counts its merges knows which task failed.
	if len(merged) != 41 {
		t.Errorf("merged %d results, want the 41 below the failing index", len(merged))
	}
	for j, v := range merged {
		if v != j {
			t.Fatalf("merge %d got index %d, want %d", j, v, j)
		}
	}
}

// A fold over the suffix [10, 40) — the shape a resumed run uses, offsetting
// the task index by the checkpointed prefix — stops at a failure inside the
// suffix with a contiguous prefix of [10, 25) merged.
func TestReduceOrderedFromError(t *testing.T) {
	t.Parallel()

	const start, end = 10, 40
	boom := errors.New("boom")
	var merged []int
	err := ReduceOrdered(context.Background(), end-start, 4, func(i int) (int, error) {
		if start+i == 25 {
			return 0, boom
		}
		return start + i, nil
	}, func(v int) {
		merged = append(merged, v)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got error %v, want %v", err, boom)
	}
	// Merges form a contiguous prefix of [10, 25).
	for j, v := range merged {
		if v != start+j {
			t.Fatalf("merge %d got index %d, want %d", j, v, start+j)
		}
	}
	if len(merged) > 25-start {
		t.Fatalf("error did not stop the fold: %d merges", len(merged))
	}
}

func TestReduceOrderedContextCancellation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ReduceOrdered(ctx, 50, 4, func(i int) (int, error) { return i, nil }, func(int) {})
	if err == nil {
		t.Error("expected an error from the cancelled context")
	}
	// An empty range is a no-op: neither fn nor merge runs.
	for _, n := range []int{0, -3} {
		ran := false
		err := ReduceOrdered(context.Background(), n, 4, func(i int) (int, error) { ran = true; return i, nil },
			func(int) { ran = true })
		if err != nil || ran {
			t.Errorf("n=%d: err=%v, ran=%v", n, err, ran)
		}
	}
}
