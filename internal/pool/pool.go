// Package pool is the bounded worker pool shared by the experiment and
// design-space harnesses, the batch scheduler, and the compile
// executor: fan-out over an index range on a bounded set of
// goroutines, with context-based early abort (ForEach) or a sink on
// the caller's goroutine for streamed results (Stream). It replaces
// ad-hoc goroutine fan-outs so that concurrency in this repository is
// bounded in exactly one place.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n), on at most workers
// goroutines (GOMAXPROCS when workers <= 0, never more than n). It
// blocks until all started work finishes.
//
// When ctx is canceled, no further items are started — in-flight fn
// calls run to completion (fn receives ctx-derived cancellation only
// if it captures ctx itself) — and ForEach returns ctx.Err(). With an
// uncancelable ctx the return is always nil.
func ForEach(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// A cancel racing the feeder can leave items in the
				// channel; drain without running them.
				select {
				case <-done:
					continue
				default:
				}
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-done:
			break feed
		}
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}
