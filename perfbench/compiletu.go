package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"clustersched/internal/assign"
	"clustersched/internal/compile"
	"clustersched/internal/diag"
	"clustersched/internal/emit"
	"clustersched/internal/frontend"
	"clustersched/internal/lint"
	"clustersched/internal/livermore"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/stagesched"
	"clustersched/internal/verify"
)

// compile_tu: the clusterc -O path. A compile.Executor with stage
// scheduling, pipelined emission and GOMAXPROCS workers compiles a
// translation unit on the 2-cluster, 2-bus, 1-port GP machine: the 14
// Livermore kernels plus a seeded loopgen.SourceCorpus of generated
// loops. frontend.Compile runs inside the op. One op is one loop
// emitted. It is the only workload that runs the frontend, stage
// scheduling, register allocation and pipelined emission.
const (
	compileMachine = "gp:2:2:1"
	compileLoops   = 1200
)

// unit is one translation unit's source: the generated loops (the
// Livermore kernels come with livermore.Kernels).
type unit struct{ gen string }

// frontend compiles the unit: the Livermore kernels, then the
// generated loops.
func (u unit) frontend() ([]frontend.Loop, error) {
	kernels, err := livermore.Kernels()
	if err != nil {
		return nil, err
	}
	gen, err := frontend.Compile(u.gen)
	if err != nil {
		return nil, err
	}
	return append(kernels, gen...), nil
}

func compileOptions(emitFn func(*compile.LoopResult)) compile.Options {
	return compile.Options{
		Pipeline: pipeline.Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			CollectStats: true,
		},
		Workers:    runtime.GOMAXPROCS(0),
		StageSched: true,
		Pipelined:  true,
		Emit:       emitFn,
	}
}

func runCompileTU(cfg config) (*report, error) {
	ctx := context.Background()
	m := machine.NewBusedGP(2, 2, 1)
	n := compileLoops
	if cfg.small {
		n = 6
	}
	u := unit{gen: loopgen.SourceCorpus(cfg.seed, n)}
	rep := newReport()
	rep.context["machine"] = compileMachine

	// The executor's Emit callback runs on the goroutine that called
	// Run. A loop's latency is the time from the start of the unit's
	// compile, frontend included, to the loop's emission: when its code
	// is available.
	var (
		lat   []int64
		start time.Time
	)
	onEmit := func(*compile.LoopResult) { lat = append(lat, time.Since(start).Nanoseconds()) }
	kernels, err := livermore.Kernels()
	if err != nil {
		return nil, err
	}
	var e *compile.Executor
	setup, err := newSetupClock(func() (func(), error) {
		x := compile.NewExecutor(m, compileOptions(onEmit))
		if e == nil {
			e = x
		}
		_, err := x.Run(ctx, kernels)
		return nil, err
	})
	if err != nil {
		return nil, err
	}

	tu := func() (*compile.Result, error) {
		lat = lat[:0]
		start = time.Now()
		loops, err := u.frontend()
		if err != nil {
			return nil, err
		}
		return e.Run(ctx, loops)
	}

	if cfg.traced {
		return rep, traceCompile(ctx, cfg, rep, m, u, tu)
	}

	var ref *compile.Result
	w := startWindow()
	for !w.done(cfg.window) {
		res, err := tu()
		if err != nil {
			return nil, err
		}
		for _, ns := range lat {
			w.record(ns)
		}
		w.endPass()
		w.pause()
		if err := setup.again(); err != nil {
			return nil, err
		}
		w.resume()
		rep.attempted += int64(len(res.Loops))
		if ref == nil {
			ref = res
		}
		for i := range res.Loops {
			got, want := &res.Loops[i], &ref.Loops[i]
			switch {
			case got.Err != nil:
				rep.failed++
				rep.fail("loop %s: %v", got.Name, got.Err)
			case got.Text != want.Text:
				rep.failed++
				rep.fail("loop %s: emitted code differs from the first compile", got.Name)
			}
		}
	}
	w.stop()
	secs, err := setup.finish()
	if err != nil {
		return nil, err
	}
	w.report(rep, secs)
	return rep, compileQuality(ctx, rep, m, ref)
}

// loopInput returns the schedule input of a compiled loop.
func loopInput(m *machine.Config, r *compile.LoopResult) (sched.Input, *sched.Schedule) {
	a := r.Outcome.Assignment
	return sched.Input{Graph: a.Graph, Machine: m, ClusterOf: a.ClusterOf, CopyTargets: a.CopyTargets, II: r.Outcome.II}, r.Outcome.Schedule
}

// simCheck runs the emitted schedule under its register allocation and
// checks its values against sim.NaiveValues, a plain sequential
// execution: copies must be transparent (the annotated loop's naive
// values equal the input loop's on the input nodes), and the pipelined
// values must equal the annotated loop's naive values on every node.
func simCheck(m *machine.Config, r *compile.LoopResult) error {
	in, sch := loopInput(m, r)
	iters := 3*r.Alloc.Factor + 4
	orig := sim.NaiveValues(r.Graph, iters)
	naive := sim.NaiveValues(in.Graph, iters)
	pipe, err := sim.PipelinedValues(in, sch, iters, sim.MVEBinding(r.Alloc))
	if err != nil {
		return err
	}
	for it := range naive {
		for v := range naive[it] {
			switch {
			case v < len(orig[it]) && orig[it][v] != naive[it][v]:
				return fmt.Errorf("copy insertion changed node %d's value at iteration %d", v, it)
			case naive[it][v] != pipe[it][v]:
				return fmt.Errorf("node %d's pipelined value differs from naive execution at iteration %d", v, it)
			}
		}
	}
	return nil
}

// compileQuality checks every loop of the first compile with the
// simulator and sets the generated-code metrics, with the
// unified-machine reference IIs computed here, outside the window.
func compileQuality(ctx context.Context, rep *report, m *machine.Config, ref *compile.Result) error {
	if ref == nil {
		return fmt.Errorf("no compile finished within the window")
	}
	q := newQuality(m)
	moved := 0
	for i := range ref.Loops {
		r := &ref.Loops[i]
		if r.Err != nil {
			continue
		}
		if err := simCheck(m, r); err != nil {
			rep.failed++
			rep.fail("loop %s: simulation: %v", r.Name, err)
		}
		if err := q.add(ctx, r.Graph, r.Outcome.II, r.Outcome.MII, r.Alloc.TotalRegisters(), len(r.Text)); err != nil {
			return err
		}
		moved += r.Moved
	}
	q.report(rep)
	rep.context["stagesched_moved"] = moved
	return nil
}

// traceCompile is the traced run of compile_tu: half the window
// untraced, then half in which each compile of the unit is the program
// span and is followed by a replay of every loop through the layers
// the executor's stages call. The executor overlaps loops, so the
// unattributed time is exact per unit, not per loop.
func traceCompile(ctx context.Context, cfg config, rep *report, m *machine.Config, u unit, tu func() (*compile.Result, error)) error {
	half := cfg.window / 2
	r0 := readRuntime()
	start := time.Now()
	plain := 0
	for !deadline(start, half) {
		res, err := tu()
		if err != nil {
			return err
		}
		plain += len(res.Loops)
	}
	untracedNS := float64(time.Since(start).Nanoseconds()) / float64(max(plain, 1))
	reportRuntime(rep, r0, readRuntime(), plain)

	tr := newTracer(time.Now(), cfg.slow)
	rp, err := newReplica(m, tr)
	if err != nil {
		return err
	}
	ops, moved := 0, 0
	start = time.Now()
	for !deadline(start, half) {
		tr.op = int64(ops)
		t0 := time.Now()
		res, err := tu()
		if err != nil {
			return err
		}
		busyWait(programDelay(cfg.slow, "frontend") +
			time.Duration(len(res.Loops))*programDelay(cfg.slow, "lint", "stagesched", "verify.schedule", "regalloc", "emit"))
		tr.program("compile.tu", -1, t0, time.Now())
		var loops []frontend.Loop
		tr.layer("frontend", func() { loops, err = u.frontend() })
		if err != nil {
			return err
		}
		for i, l := range loops {
			tr.op = int64(ops)
			ops++
			rep.attempted++
			got := &res.Loops[i]
			n, err := replayLoop(ctx, tr, rp, m, l, got)
			if err != nil {
				rep.failed++
				rep.fail("loop %s: %v", l.Name, err)
				continue
			}
			moved += n
			tr.check("sim", func() { err = simCheck(m, got) })
			if err != nil {
				rep.failed++
				rep.fail("loop %s: simulation: %v", l.Name, err)
			}
		}
	}
	tracedNS := float64(time.Since(start).Nanoseconds()) / float64(max(ops, 1))
	reportLayers(rep, []map[int64]*opTotals{tr.attribution("compile.tu")}, "compile.unattributed_ns", ops)
	rp.reportCounters(rep, ops)
	rep.set("stagesched.moved", float64(moved)/float64(max(ops, 1)), "count")
	overhead(rep, untracedNS, tracedNS)
	rep.context["traced_ops"] = ops
	finishTrace(rep)
	return writeSpans(cfg.traceOut, tr)
}

// replayLoop replays one loop through the executor's stages: lint,
// the session schedule (replica), stage scheduling, the schedule check
// and register allocation, and pipelined emission. The emitted text
// must equal the program's. It returns the number of operations stage
// scheduling moved.
func replayLoop(ctx context.Context, tr *tracer, rp *replica, m *machine.Config, l frontend.Loop, got *compile.LoopResult) (int, error) {
	if got.Err != nil {
		return 0, got.Err
	}
	var err error
	tr.layer("lint", func() { err = diag.AsError(lint.Graph(l.Graph)) })
	if err != nil {
		return 0, err
	}
	out, err := rp.schedule(ctx, l.Graph)
	if err != nil {
		return 0, err
	}
	in := out.in(m)
	var moved int
	tr.layer("stagesched", func() { moved = stagesched.Optimize(in, out.sch) })
	tr.layer("verify.schedule", func() { err = verify.Schedule(in, out.sch) })
	if err != nil {
		return 0, err
	}
	var alloc *regalloc.Allocation
	tr.layer("regalloc", func() {
		alloc = regalloc.AllocateMVE(in, out.sch)
		err = alloc.Validate(in, out.sch)
	})
	if err != nil {
		return 0, err
	}
	var text string
	tr.layer("emit", func() { text = emit.Pipelined(in, out.sch) })
	if text != got.Text || moved != got.Moved {
		return 0, fmt.Errorf("replayed compile differs from the program")
	}
	return moved, nil
}
