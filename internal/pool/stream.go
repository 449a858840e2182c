package pool

import (
	"sync"
	"sync/atomic"
)

// Stream runs fn(i) for every i in [0, n) on at most workers
// goroutines (at least one, never more than n), handing items out in
// index order, and calls sink(i) on the caller's goroutine as each
// item finishes — in completion order, not input order; callers
// needing input-order delivery keep a reorder buffer in the sink (see
// internal/compile). Stream returns once every item has passed fn and
// sink and every worker has exited.
//
// There is no context parameter by design: cancellation is fn's
// business. The contract callers follow is drain-through — once
// canceled, fn degrades to a cheap no-op that records the
// cancellation on its item — so Stream still returns normally with
// every sink call made, and this helper needs no multi-channel select.
func Stream(n, workers int, fn, sink func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	// Sized to the worker count, so a worker can usually hand off a
	// finished item without waiting for the sink.
	done := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				done <- i
			}
		}()
	}
	for k := 0; k < n; k++ {
		sink(<-done)
	}
	wg.Wait()
}
