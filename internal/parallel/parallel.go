// Package parallel is the deterministic fork-join execution layer the
// analysis substrate runs on: bounded worker pools over an index space,
// with results written into caller-owned, index-addressed slots so every
// reduction happens in a deterministic order no matter how the scheduler
// interleaves the work.
//
// The contract every caller relies on:
//
//   - workers <= 1 runs inline on the calling goroutine, byte-identical
//     to a plain loop (no goroutines, no synchronization);
//   - workers > 1 produces exactly the same results as workers == 1,
//     because tasks communicate only through their own index slot and
//     callers reduce the slots in index order;
//   - cancellation is cooperative: once ctx is done, unstarted tasks are
//     skipped and the context error is reported.
//
// Errors are deterministic too: when several tasks fail, the error of
// the lowest index is returned, matching what a serial loop that stops
// at the first failure would have surfaced. A panicking task counts as
// a failure at its index: the workers recover it, and once the pool has
// drained the panic is raised again on the calling goroutine, where the
// caller's recover can see it (a panic on a pool goroutine would end the
// process).
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: any value below 1 means
// GOMAXPROCS (use the whole machine), mirroring the convention of
// simulate.Config.Workers.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers < 1 means GOMAXPROCS). It blocks until every started task
// finished, then returns the lowest-index error, if any, or re-raises
// the panic of the lowest-index task if that task panicked. Tasks must
// communicate only through index-addressed state for the deterministic
// equality of serial and parallel runs to hold.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWorker(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach where fn also receives the worker slot w in
// [0, workers). Two tasks with the same slot never run concurrently, so
// callers can keep per-slot scratch buffers without locking (the CART
// split search reuses class-count buffers this way).
func ForEachWorker(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline serial path: identical to the pre-parallel code, with a
		// cancellation checkpoint between tasks.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Cancellation checkpoint: drain remaining indices
				// without running them once the caller is gone.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = run(fn, w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if p, ok := err.(*taskPanic); ok {
				panic(p.value)
			}
			return err
		}
	}
	return nil
}

// taskPanic carries a task's recovered panic through its error slot to
// the calling goroutine, which raises it again.
type taskPanic struct{ value any }

func (p *taskPanic) Error() string { return "parallel: task panicked" }

// run calls fn(w, i) and returns its error; a panic is recovered and
// returned as a *taskPanic.
func run(fn func(w, i int) error, w, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &taskPanic{p}
		}
	}()
	return fn(w, i)
}

// Map runs fn over [0, n) and returns the results in index order — the
// ordered-reduction primitive. On error the lowest-index failure is
// returned and the results are discarded.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
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

// Chunks splits [0, n) into at most parts contiguous [lo, hi) ranges of
// near-equal size, in order. Scans that keep running state use it to
// fan a loop out after precomputing prefix sums.
func Chunks(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	size, rem := n/parts, n%parts
	lo := 0
	for p := 0; p < parts; p++ {
		hi := lo + size
		if p < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
