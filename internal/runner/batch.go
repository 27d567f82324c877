package runner

import (
	"runtime"
	"sync"
	"sync/atomic"

	"locat/internal/conf"
)

// RunBatch executes the application once per configuration and returns the
// results in configuration order plus the completed prefix length.
//
// Every backend runs through one bounded worker pool over ReserveRuns /
// RunAppAt: the pool reserves one contiguous index block up front so item i
// always executes as run index first+i regardless of which worker claims
// it, reproducing a serial RunApp loop bit-for-bit on index-deterministic
// backends — the simulator included, whose concurrent cluster slots these
// workers model. The pool clamps its worker count to the backend's
// concurrency cap (SparkRest's submission slots). An outermost Observed
// sees the batch as a whole, to report its members under KindBatch; it
// dispatches on its inner backend and so ends up here as well. Below any
// other decorator, Observed sees the batch run by run.
//
// workers ≤ 0 selects GOMAXPROCS. dataGB(i) supplies the input size of item
// i and must be safe for concurrent calls (pure functions are). stop, if
// non-nil, is polled before each item is claimed; once it returns true no
// new items start. Polls are serialized, so stop keeps the single-caller
// contract it has everywhere else. results[0:done] are valid; done <
// len(cs) only when stop cut the batch short.
func RunBatch(r Runner, app *Application, cs []conf.Config, dataGB func(i int) float64, workers int, stop func() bool) (results []AppResult, done int) {
	if o, ok := r.(*Observed); ok {
		return o.RunBatch(app, cs, dataGB, workers, stop)
	}
	return poolBatch(r, app, cs, dataGB, clampWorkers(workers, len(cs), maxParallelOf(r)), stop)
}

// clampWorkers resolves the effective pool size: the requested count
// (GOMAXPROCS when ≤ 0), at most one per item, at most the backend cap.
func clampWorkers(workers, items, maxParallel int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if maxParallel > 0 && workers > maxParallel {
		workers = maxParallel
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// poolBatch is the bounded worker pool behind every batch.
func poolBatch(r Runner, app *Application, cs []conf.Config, dataGB func(i int) float64, workers int, stop func() bool) (results []AppResult, done int) {
	n := len(cs)
	results = make([]AppResult, n)
	if n == 0 {
		return results, 0
	}
	first := r.ReserveRuns(n)
	completed := make([]bool, n)
	if workers == 1 {
		// Serial fast path: no goroutine, same indices, same results.
		for i := 0; i < n; i++ {
			if stop != nil && stop() {
				break
			}
			results[i] = r.RunAppAt(first+uint64(i), app, cs[i], dataGB(i), nil)
			completed[i] = true
		}
	} else {
		if stop != nil {
			inner := stop
			var mu sync.Mutex
			stop = func() bool {
				mu.Lock()
				defer mu.Unlock()
				return inner()
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		// A panicking run (a replay trace miss, an injected chaos kill) must
		// not crash the process from a worker goroutine: capture the first
		// panic, drain the pool, and re-raise it on the caller's goroutine
		// where session-level recovery (the service's runJobSafe) can see it.
		var panicOnce sync.Once
		var panicked any
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						panicOnce.Do(func() { panicked = p })
						next.Store(int64(n)) // stop claiming further items
					}
				}()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if stop != nil && stop() {
						return
					}
					results[i] = r.RunAppAt(first+uint64(i), app, cs[i], dataGB(i), nil)
					completed[i] = true
				}
			}()
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}
	for done < n && completed[done] {
		done++
	}
	return results, done
}
