package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamEveryItemOnce checks the basic contract: each item runs
// exactly once and reaches the sink exactly once.
func TestStreamEveryItemOnce(t *testing.T) {
	const n = 100
	var ran [n]atomic.Int32
	sunk := make([]int, n)
	Stream(n, 3, func(i int) { ran[i].Add(1) }, func(i int) { sunk[i]++ })
	for i := 0; i < n; i++ {
		if r := ran[i].Load(); r != 1 {
			t.Fatalf("item %d ran %d times, want 1", i, r)
		}
		if sunk[i] != 1 {
			t.Fatalf("item %d reached the sink %d times, want 1", i, sunk[i])
		}
	}
}

// TestStreamWorkerBound checks that no more than workers fn calls run
// at once, and that the bound is actually reached.
func TestStreamWorkerBound(t *testing.T) {
	const n, workers = 64, 3
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	var open sync.Once
	Stream(n, workers, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		// Hold the first items until the bound is reached, so the
		// peak reaches it instead of depending on scheduling luck,
		// then a little longer, so a pool that ignored the bound
		// would start more items meanwhile.
		if c >= workers {
			open.Do(func() {
				time.Sleep(20 * time.Millisecond)
				close(gate)
			})
		}
		if i < workers {
			<-gate
		}
		cur.Add(-1)
	}, func(int) {})
	if p := peak.Load(); p != workers {
		t.Fatalf("observed a peak of %d concurrent fn calls, want %d", p, workers)
	}
}

// TestStreamZeroItems must not call anything or hang.
func TestStreamZeroItems(t *testing.T) {
	called := false
	Stream(0, 4, func(int) { called = true }, func(int) { called = true })
	if called {
		t.Fatal("Stream(0, ...) invoked fn or the sink")
	}
}

// TestStreamSinkOnCaller relies on the race detector: the sink
// mutates unsynchronized state, which is legal only because every
// sink call runs on the caller's goroutine.
func TestStreamSinkOnCaller(t *testing.T) {
	sum := 0
	Stream(50, 4, func(int) {}, func(i int) { sum += i })
	if want := 50 * 49 / 2; sum != want {
		t.Fatalf("sink sum = %d, want %d", sum, want)
	}
}
