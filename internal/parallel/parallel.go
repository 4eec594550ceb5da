// Package parallel provides a small worker-pool helper used to fan
// Monte-Carlo trials out over goroutines. Results are deterministic
// regardless of the number of workers because every task derives its own
// random stream from the task index, and outputs are written to an
// index-addressed slice rather than appended in completion order.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) using at most workers goroutines
// (0 means GOMAXPROCS). It stops early when the context is cancelled or when
// fn returns an error, and returns the first error encountered (in index
// order among tasks that ran). All spawned goroutines are joined before
// ForEach returns.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("parallel: nil task function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		next     int
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || firstErr != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	record := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && (firstErr == nil || i < firstIdx) {
			firstErr = err
			firstIdx = i
			cancel()
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i, ok := claim()
				if !ok {
					return
				}
				record(i, fn(i))
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) with at most workers goroutines and
// collects the results in index order. On error the partial results are
// discarded and the first error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceOrdered runs fn(i) for every i in [0, n) with at most workers
// goroutines and streams the results into merge in strict index order:
// merge(v_0), merge(v_1), ... exactly as a sequential loop would, every call
// made on the calling goroutine. Unlike Map it never materializes all the
// results: the caller issues index i only once i-workers has been merged, so
// at most workers tasks are running or waiting to be merged at any moment.
// The window is the worker count, not more: a worker that finishes ahead of
// the merge waits for the caller to take its result instead of starting
// another task, so a caller that streams each result as it merges it (an
// HTTP response row by row) does not compete with a further task for a core
// while it writes.
//
// Error semantics match ForEach: the first error in index order among tasks
// that ran is returned, and merge has then been called for exactly the
// indices strictly below the failing one, so the number of merges is the
// failing index — callers that discard the accumulator on error observe no
// difference from Map. Cancelling ctx stops the fold before its next merge;
// every spawned goroutine is joined before ReduceOrdered returns.
func ReduceOrdered[T any](ctx context.Context, n, workers int, fn func(i int) (T, error), merge func(v T)) error {
	if n <= 0 {
		return nil
	}
	if fn == nil || merge == nil {
		return fmt.Errorf("parallel: nil task or merge function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fold: no goroutines, one result in flight.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := fn(i)
			if err != nil {
				return err
			}
			merge(v)
		}
		return nil
	}

	type result struct {
		v   T
		err error
	}
	// Index i reports through slots[i%window]. The caller issues i only after
	// merging i-window, the slot's previous user, so every slot holds at most
	// one result and no worker ever blocks on a send; the ticket buffer never
	// holds more than the window either, so issuing never blocks. The workers
	// read window rather than the reassigned parameter workers, which would
	// otherwise move to the heap on the sequential path too.
	window := workers
	tickets := make(chan int, window)
	slots := make([]chan result, window)
	for s := range slots {
		slots[s] = make(chan result, 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tickets {
				v, err := fn(i)
				slots[i%window] <- result{v, err}
			}
		}()
	}
	defer func() {
		// Unissued work is abandoned: the caller takes back every ticket no
		// worker has claimed, and the workers exit once the closed channel
		// drains.
		close(tickets)
		for range tickets {
		}
		wg.Wait()
	}()

	issued := 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for ; issued < n && issued < i+window; issued++ {
			tickets <- issued
		}
		select {
		case r := <-slots[i%window]:
			if r.err != nil {
				return r.err
			}
			merge(r.v)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
