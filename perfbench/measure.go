package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its sessions,
// server or executor; setup_s is the median of these builds.
const setupReps = 31

// setupClock times a workload's set-up: building its session, server
// or executor, plus the warm-up before the first op. The first build is
// the one the run uses. The others are thrown away and spread between
// the window's passes, with the window's clock stopped, so that no
// single short stretch in which the host ran faster or slower than
// usual decides the median. Each build starts after a full garbage
// collection, so that none pays for collecting what came before it.
type setupClock struct {
	build func() (discard func(), err error)
	secs  []float64
}

// newSetupClock runs and times the first build, whose result the
// caller keeps.
func newSetupClock(build func() (discard func(), err error)) (*setupClock, error) {
	c := &setupClock{build: build, secs: make([]float64, 0, setupReps)}
	_, err := c.time()
	return c, err
}

func (c *setupClock) time() (func(), error) {
	runtime.GC()
	t := time.Now()
	discard, err := c.build()
	c.secs = append(c.secs, time.Since(t).Seconds())
	return discard, err
}

// again times one more build, if fewer than setupReps were timed, and
// throws its result away.
func (c *setupClock) again() error {
	if len(c.secs) >= setupReps {
		return nil
	}
	discard, err := c.time()
	if discard != nil {
		discard()
	}
	return err
}

// finish times the builds still missing and returns every build's
// seconds.
func (c *setupClock) finish() ([]float64, error) {
	for len(c.secs) < setupReps {
		if err := c.again(); err != nil {
			return nil, err
		}
	}
	return c.secs, nil
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak heap in use over a timed window: the
// largest live heap a garbage collection marked. The heap-objects
// gauge, which also counts garbage not yet collected, peaks wherever
// the collector's pacer happened to start a cycle, and that moves with
// the host's speed.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// heapSampleEvery is how many ops pass between heap samples.
const heapSampleEvery = 16

// window measures a timed stretch of ops: wall time, process CPU,
// per-op latency and peak heap. The clock can be paused, for work
// between ops that the window must not count.
//
// The window is cut into passes, each a whole unit of the workload's
// input (one pass over the suite, one translation unit, one round of
// the request stream), so every pass measures the same inputs. Each
// timing metric is its median over the complete passes: a pass that
// ran while other work slowed the host moves it little, and a slowdown
// of the program that shows in most passes moves it fully.
type window struct {
	start   time.Time
	cpu0    time.Duration
	running bool
	heap    *heapSampler
	// lat holds the current pass's op latencies in nanoseconds, ops
	// counts every op of the window.
	lat []int64
	ops int

	elapsed time.Duration
	cpu     time.Duration

	// The current pass began at clock readings passWall0 and passCPU0.
	passWall0, passCPU0 time.Duration
	passes              []passStat
}

// passStat is one complete pass's timing.
type passStat struct {
	ops       int
	wall, cpu time.Duration
	p50, p99  int64
}

// passCap holds the latencies of the largest pass of any workload, so
// that the benchmark's own memory does not grow with the program's
// speed and move peak_heap_mib.
const passCap = 1 << 15

func startWindow() *window {
	runtime.GC()
	w := &window{heap: newHeapSampler(), lat: make([]int64, 0, passCap)}
	w.heap.sample()
	w.resume()
	w.beginPass()
	return w
}

// record adds one op's latency and samples the heap now and then.
func (w *window) record(ns int64) {
	w.lat = append(w.lat, ns)
	w.ops++
	if w.ops%heapSampleEvery == 0 {
		w.heap.sample()
	}
}

// pause stops the clocks; resume restarts them.
func (w *window) pause() {
	w.elapsed += time.Since(w.start)
	w.cpu += cpuTime() - w.cpu0
	w.running = false
}

func (w *window) resume() {
	w.cpu0 = cpuTime()
	w.start = time.Now()
	w.running = true
}

// clocks returns the wall and CPU time the window has counted so far.
func (w *window) clocks() (wall, cpu time.Duration) {
	wall, cpu = w.elapsed, w.cpu
	if w.running {
		wall += time.Since(w.start)
		cpu += cpuTime() - w.cpu0
	}
	return wall, cpu
}

// beginPass starts a pass at the ops recorded from now on.
func (w *window) beginPass() {
	w.lat = w.lat[:0]
	w.passWall0, w.passCPU0 = w.clocks()
}

// endPass closes the current pass, which covered the ops recorded
// since it began and the clock time counted since, and begins the next.
func (w *window) endPass() {
	wall, cpu := w.clocks()
	slices.Sort(w.lat)
	w.passes = append(w.passes, passStat{
		ops: len(w.lat), wall: wall - w.passWall0, cpu: cpu - w.passCPU0,
		p50: quantile(w.lat, 0.50), p99: quantile(w.lat, 0.99),
	})
	w.beginPass()
}

// stop closes the window.
func (w *window) stop() {
	if w.running {
		w.pause()
	}
	w.heap.sample()
}

// report sets the timing metrics every workload shares: each is its
// median over the complete passes, or the whole window's when no pass
// completed. The throughput and the p99 latency go to the context, not
// to the metrics: they follow how much of its two cores the shared
// host leaves free (see README.md). So do the best pass's values.
func (w *window) report(rep *report, setup []float64) {
	passes := w.passes
	if len(passes) == 0 {
		slices.Sort(w.lat)
		passes = []passStat{{ops: len(w.lat), wall: w.elapsed, cpu: w.cpu, p50: quantile(w.lat, 0.50), p99: quantile(w.lat, 0.99)}}
	}
	var rate, cpu, p50, p99 []float64
	ops := 0
	for _, p := range passes {
		n := float64(max(p.ops, 1))
		rate = append(rate, n/p.wall.Seconds())
		cpu = append(cpu, float64(p.cpu.Nanoseconds())/1e3/n)
		p50 = append(p50, float64(p.p50)/1e3)
		p99 = append(p99, float64(p.p99)/1e3)
		ops += p.ops
	}
	rep.context["pass_best"] = map[string]float64{
		"ops_per_s": slices.Max(rate), "cpu_us_per_op": slices.Min(cpu),
		"op_p50_us": slices.Min(p50), "op_p99_us": slices.Min(p99),
	}
	rep.context["ops_per_s"] = median(rate)
	rep.context["op_p99_us"] = median(p99)
	rep.set("cpu_us_per_op", median(cpu), "us")
	rep.set("op_p50_us", median(p50), "us")
	rep.set("setup_s", median(setup), "s")
	rep.set("peak_heap_mib", float64(w.heap.peak)/(1<<20), "MiB")
	smallest := slices.MinFunc(passes, func(a, b passStat) int { return a.ops - b.ops }).ops
	rep.context["ops"] = w.ops
	rep.context["passes"] = len(passes)
	rep.context["pass_ops_min"] = smallest
	rep.context["pass_ops_beyond_p99_min"] = smallest - int(math.Ceil(0.99*float64(smallest)))
	rep.context["window_s"] = w.elapsed.Seconds()
}

// runtimeStats are the allocator and GC counters over a window.
type runtimeStats struct {
	allocs, bytes, gcs uint64
	pause              time.Duration
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{allocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs)}
}

// reportRuntime sets the runtime.* per-layer metrics from two readings
// around an untraced window of ops.
func reportRuntime(rep *report, a, b runtimeStats, ops int) {
	n := float64(max(ops, 1))
	rep.set("runtime.allocs_per_op", float64(b.allocs-a.allocs)/n, "count")
	rep.set("runtime.bytes_per_op", float64(b.bytes-a.bytes)/n, "B")
	rep.set("runtime.gc_cycles", float64(b.gcs-a.gcs), "count")
	rep.set("runtime.gc_pause_ns", float64((b.pause-a.pause).Nanoseconds())/n, "ns")
}

// done reports whether the window's clock has run for d in all.
func (w *window) done(d time.Duration) bool {
	wall := w.elapsed
	if w.running {
		wall += time.Since(w.start)
	}
	return wall >= d
}

// deadline reports whether the window that started at start has run
// for d.
func deadline(start time.Time, d time.Duration) bool { return time.Since(start) >= d }
