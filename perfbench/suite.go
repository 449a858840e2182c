package main

import (
	"context"
	"time"

	"clustersched"
	"clustersched/internal/livermore"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
)

// paper_suite_4c: loops of the paper's Table 1 suite distribution,
// scheduled one after another on one facade session on the 4-cluster,
// 4-bus, 1-port GP machine (Figure 17's 1-port point). One op is one
// loop. Assignment backtracking, evictions, warm starts and II
// escalation do almost all of the work; no parse, HTTP, cache or
// backend code runs.
//
// The input is eight Table 1 suites: chunk j is loopgen.Suite(seed +
// j*suiteSeedStride, 1327), so chunk 0 is the Table 1 suite of the
// seed. One suite has only 13 loops beyond its p99, so its p99,
// throughput and II sums move with the seed by more than a regression
// bound; eight make them steady. Only one chunk's graphs are live at a
// time, as when a compiler holds one suite: each chunk is generated
// with the clock stopped when its turn comes, so the collector never
// marks eight suites' worth of benchmark input.
const (
	suiteMachine    = "gp:4:4:1"
	suiteChunks     = 8
	suiteSeedStride = 1000003
)

// suiteInput generates the suite chunk by chunk.
type suiteInput struct {
	seed             int64
	chunks, chunkLen int
}

func (in suiteInput) count() int { return in.chunks * in.chunkLen }

func (in suiteInput) chunk(j int) []*clustersched.Graph {
	return loopgen.Suite(loopgen.Options{Seed: in.seed + int64(j)*suiteSeedStride, Count: in.chunkLen})
}

// passes runs op on every loop of the suite, in order, pass after pass,
// until w's clock has run for d; the clock stops while a chunk is
// generated. After each complete pass it ends the window's pass and
// runs between with the clock stopped.
func (in suiteInput) passes(w *window, d time.Duration, op func(k int, g *clustersched.Graph) error, between func() error) error {
	for !w.done(d) {
		for j := 0; j < in.chunks; j++ {
			w.pause()
			loops := in.chunk(j)
			w.resume()
			for i, g := range loops {
				if w.done(d) {
					return nil
				}
				if err := op(j*in.chunkLen+i, g); err != nil {
					return err
				}
			}
		}
		w.endPass()
		w.pause()
		if err := between(); err != nil {
			return err
		}
		w.resume()
	}
	return nil
}

func runPaperSuite(cfg config) (*report, error) {
	ctx := context.Background()
	m := machine.NewBusedGP(4, 4, 1)
	in := suiteInput{seed: cfg.seed, chunks: suiteChunks, chunkLen: loopgen.DefaultCount}
	if cfg.small {
		in.chunks, in.chunkLen = 2, 12
	}
	rep := newReport()
	rep.context["machine"] = suiteMachine
	rep.context["loops"] = in.count()

	// Set-up: a session plus a warm-up over the Livermore kernels, the
	// same for every seed, so that its pools and scratch buffers have
	// grown before the first timed op.
	warm, err := livermore.Graphs()
	if err != nil {
		return nil, err
	}
	var sess *clustersched.Session
	setup, err := newSetupClock(func() (func(), error) {
		s := clustersched.NewSession(m)
		for _, g := range warm {
			if _, err := s.Schedule(ctx, g); err != nil {
				return nil, err
			}
		}
		if sess == nil {
			sess = s
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}

	if cfg.traced {
		return rep, traceSuite(ctx, cfg, rep, m, sess, in)
	}

	prints := make([]fingerprint, in.count())
	opsOf := make([]int64, in.count())
	w := startWindow()
	err = in.passes(w, cfg.window, func(k int, g *clustersched.Graph) error {
		t := time.Now()
		res, err := sess.Schedule(ctx, g)
		w.record(time.Since(t).Nanoseconds())
		rep.attempted++
		opsOf[k]++
		switch {
		case err != nil:
			rep.failed++
			rep.fail("loop %d: %v", k, err)
		case opsOf[k] == 1:
			prints[k] = fingerprintOf(res)
		case prints[k] != fingerprintOf(res):
			rep.failed++
			rep.fail("loop %d: schedule differs from the first pass", k)
		}
		return nil
	}, setup.again)
	if err != nil {
		return nil, err
	}
	w.stop()
	secs, err := setup.finish()
	if err != nil {
		return nil, err
	}
	w.report(rep, secs)

	// After the window: one more pass, which must reproduce the
	// window's schedules, with each distinct schedule audited.
	q := newQuality(m)
	for j := 0; j < in.chunks; j++ {
		for i, g := range in.chunk(j) {
			k := j*in.chunkLen + i
			res, err := sess.Schedule(ctx, g)
			if err != nil {
				return nil, err
			}
			if opsOf[k] > 0 && prints[k] != fingerprintOf(res) {
				rep.failed += opsOf[k]
				rep.fail("loop %d: schedule differs from the timed passes", k)
			}
			if diags := res.Audit(); len(diags) > 0 {
				rep.failed += max(opsOf[k], 1)
				rep.fail("loop %d: audit: %s", k, diags[0].String())
			}
			if err := q.add(ctx, g, res.II, res.MII, res.Registers().TotalRegisters(), len(res.Pipelined())); err != nil {
				return nil, err
			}
		}
	}
	q.report(rep)
	return rep, nil
}

// fingerprint identifies a schedule: its II and a hash of its cluster
// and cycle vectors.
type fingerprint struct {
	ii int
	h  uint64
}

func fingerprintOf(res *clustersched.Result) fingerprint {
	h := uint64(14695981039346656037)
	for _, v := range res.ClusterOf {
		h = (h ^ uint64(v)) * 1099511628211
	}
	for _, v := range res.CycleOf {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return fingerprint{ii: res.II, h: h}
}

// quality accumulates the generated-code metrics over distinct loops,
// with the unified-machine reference II of each loop computed as it is
// added, outside any timed window.
type quality struct {
	uni                                        *pipeline.Session
	loops, sumII, match, regs, code, escalated int
}

func newQuality(m *machine.Config) *quality {
	return &quality{uni: pipeline.NewSession(m.Unified(), pipeline.Options{})}
}

// add records one loop's achieved II and MII, its register count and
// its pipelined listing's size.
func (q *quality) add(ctx context.Context, g *clustersched.Graph, ii, mii, regs, code int) error {
	uo, err := q.uni.Schedule(ctx, g)
	if err != nil {
		return err
	}
	q.loops++
	q.sumII += ii
	if ii == uo.II {
		q.match++
	}
	if ii > mii {
		q.escalated++
	}
	q.regs += regs
	q.code += code
	return nil
}

// report sets sum_ii, match_unified_pct, registers_total and code_bytes.
func (q *quality) report(rep *report) {
	n := float64(max(q.loops, 1))
	rep.set("sum_ii", float64(q.sumII), "cycles")
	rep.set("match_unified_pct", 100*float64(q.match)/n, "%")
	rep.set("registers_total", float64(q.regs), "count")
	rep.set("code_bytes", float64(q.code), "B")
	rep.context["escalated_frac"] = float64(q.escalated) / n
	rep.context["distinct_loops"] = q.loops
}

// traceSuite is the traced run of paper_suite_4c. Half the window runs
// untraced (for the runtime counters and the tracing overhead); the
// other half times each Session.Schedule call as the program span and
// then replays the loop through the layers.
func traceSuite(ctx context.Context, cfg config, rep *report, m *machine.Config, sess *clustersched.Session, in suiteInput) error {
	half := cfg.window / 2
	none := func() error { return nil }
	r0 := readRuntime()
	w := startWindow()
	plain := 0
	err := in.passes(w, half, func(_ int, g *clustersched.Graph) error {
		plain++
		_, err := sess.Schedule(ctx, g)
		return err
	}, none)
	if err != nil {
		return err
	}
	w.stop()
	untracedNS := float64(w.elapsed.Nanoseconds()) / float64(max(plain, 1))
	reportRuntime(rep, r0, readRuntime(), plain)

	tr := newTracer(time.Now(), cfg.slow)
	rp, err := newReplica(m, tr)
	if err != nil {
		return err
	}
	w = startWindow()
	ops := 0
	err = in.passes(w, half, func(k int, g *clustersched.Graph) error {
		tr.op = int64(ops)
		ops++
		t0 := time.Now()
		res, err := sess.Schedule(ctx, g)
		busyWait(programDelay(cfg.slow, "lint", "mii"))
		tr.program("pipeline.schedule", -1, t0, time.Now())
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("loop %d: %v", k, err)
			return nil
		}
		out, err := rp.schedule(ctx, g)
		if err != nil || !out.same(res.II, res.ClusterOf, res.CycleOf) {
			rep.failed++
			rep.fail("loop %d: replay differs from the program (err %v)", k, err)
			return nil
		}
		var n int
		tr.check("verify.audit", func() { n = len(res.Audit()) })
		if n > 0 {
			rep.failed++
			rep.fail("loop %d: audit found %d problems", k, n)
		}
		return nil
	}, none)
	if err != nil {
		return err
	}
	w.stop()
	tracedNS := float64(w.elapsed.Nanoseconds()) / float64(max(ops, 1))

	totals := tr.attribution("pipeline.schedule")
	var program int64
	for _, o := range totals {
		program += o.programNS
	}
	reportLayers(rep, []map[int64]*opTotals{totals}, "pipeline.unattributed_ns", ops)
	rep.set("pipeline.schedule_ns", float64(program)/float64(max(ops, 1)), "ns")
	rp.reportCounters(rep, ops)
	overhead(rep, untracedNS, tracedNS)
	rep.context["traced_ops"] = ops
	finishTrace(rep)
	return writeSpans(cfg.traceOut, tr)
}
