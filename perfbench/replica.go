package main

import (
	"context"
	"fmt"
	"slices"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/lint"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/sched"
)

// replica replays pipeline.Session.Schedule, as the facade configures
// it, through the layers' public functions, in the order the session
// calls them: lint.Graph, then mii.Machine.MIIWith, then per candidate
// II an assign.Problem (built or rebound at the loop: the SCC split
// and the Section 4.1 order, reported as the "order" layer), one or two
// assign.Problem.RunAt calls (warm start, then the fallback from
// scratch) and sched.IMS. Candidate IIs after the MII are probed in
// windows of pipeline.DefaultSpeculativeWindow sharing one warm seed,
// exactly as the sequential session does. Each call runs in a layer
// span of the tracer.
//
// The replica must reach the program's II and cluster and cycle
// vectors; the workloads compare them op by op.
type replica struct {
	m    *machine.Config
	mc   *mii.Machine
	rs   mii.RecScratch
	opts assign.Options
	prob *assign.Problem
	sc   *sched.Scratch
	tr   *tracer

	// Counters over every replayed loop.
	loops, escalated     int
	assignRuns, assignOK int
	warmRuns, warmOK     int
	schedRuns, schedOK   int
	stats                obs.Stats
}

// replay is one replayed loop's outcome.
type replay struct {
	ii, mii int
	res     *assign.Result
	sch     *sched.Schedule
}

// in returns the schedule input of the outcome.
func (o replay) in(m *machine.Config) sched.Input {
	return sched.Input{Graph: o.res.Graph, Machine: m, ClusterOf: o.res.ClusterOf, CopyTargets: o.res.CopyTargets, II: o.ii}
}

func newReplica(m *machine.Config, tr *tracer) (*replica, error) {
	if err := diag.AsError(lint.Machine(m)); err != nil {
		return nil, fmt.Errorf("replica: invalid machine: %w", err)
	}
	return &replica{
		m:    m,
		mc:   mii.NewMachine(m),
		opts: assign.Options{Variant: assign.HeuristicIterative},
		sc:   new(sched.Scratch),
		tr:   tr,
	}, nil
}

// schedule replays one Session.Schedule call.
func (r *replica) schedule(ctx context.Context, g *ddg.Graph) (replay, error) {
	var diags []diag.Diagnostic
	r.tr.layer("lint", func() { diags = lint.Graph(g) })
	if err := diag.AsError(diags); err != nil {
		return replay{}, fmt.Errorf("replica: invalid graph: %w", err)
	}
	var out replay
	r.tr.layer("mii", func() { out.mii = r.mc.MIIWith(g, &r.rs) })
	r.loops++

	finish := func(ii int, res *assign.Result, sch *sched.Schedule) (replay, error) {
		out.ii, out.res, out.sch = ii, res, sch
		if ii > out.mii {
			r.escalated++
		}
		return out, nil
	}
	res, sch, seed := r.probe(ctx, g, out.mii, nil)
	if sch != nil {
		return finish(out.mii, res, sch)
	}
	maxII := out.mii + pipeline.DefaultMaxIISlack
	for base := out.mii + 1; base <= maxII; base += pipeline.DefaultSpeculativeWindow {
		w := min(pipeline.DefaultSpeculativeWindow, maxII-base+1)
		var next []int
		for i := 0; i < w; i++ {
			res, sch, next = r.probe(ctx, g, base+i, seed)
			if sch != nil {
				return finish(base+i, res, sch)
			}
		}
		seed = next
	}
	return replay{}, fmt.Errorf("replica: no schedule within II <= %d (MII %d)", maxII, out.mii)
}

// probe replays one candidate II: a warm attempt when a seed is
// given, then an attempt from scratch if that failed. On failure it
// returns the warm seed for the next window (an owned copy).
func (r *replica) probe(ctx context.Context, g *ddg.Graph, ii int, seed []int) (*assign.Result, *sched.Schedule, []int) {
	ptr := obs.New(ctx, nil, true)
	defer func() { r.stats.Add(ptr.Stats) }()
	r.tr.layer("order", func() {
		if r.prob == nil {
			r.prob = assign.NewProblem(g, r.m, r.opts)
		} else {
			r.prob.Bind(g)
		}
	})
	if len(seed) > 0 {
		r.warmRuns++
		if res, sch, _ := r.attempt(ptr, ii, seed); sch != nil {
			r.warmOK++
			return res, sch, nil
		}
	}
	res, sch, partial := r.attempt(ptr, ii, nil)
	if sch != nil {
		return res, sch, nil
	}
	return nil, nil, slices.Clone(partial)
}

// attempt is one assignment and scheduling pass at ii.
func (r *replica) attempt(ptr *obs.Trace, ii int, seed []int) (*assign.Result, *sched.Schedule, []int) {
	var (
		res *assign.Result
		ok  bool
	)
	r.assignRuns++
	r.tr.layer("assign", func() { res, ok = r.prob.RunAt(ii, seed, ptr) })
	if !ok {
		return nil, nil, r.prob.Partial()
	}
	r.assignOK++
	in := sched.Input{
		Graph: res.Graph, Machine: r.m, ClusterOf: res.ClusterOf, CopyTargets: res.CopyTargets,
		II: ii, Trace: ptr, Scratch: r.sc,
	}
	var sch *sched.Schedule
	r.schedRuns++
	r.tr.layer("sched", func() { sch, ok = sched.IMS(in, 0) })
	if !ok {
		return res, nil, res.ClusterOf[:res.NumOriginal]
	}
	r.schedOK++
	return res, sch, nil
}

// same reports whether the replay matches a program outcome.
func (o replay) same(ii int, clusterOf, cycleOf []int) bool {
	return o.ii == ii && slices.Equal(o.res.ClusterOf, clusterOf) && slices.Equal(o.sch.CycleOf, cycleOf)
}

// reportCounters sets the assignment and scheduling counters per op.
func (r *replica) reportCounters(rep *report, ops int) {
	n := float64(max(ops, 1))
	rep.set("assign.attempts", float64(r.assignRuns)/n, "count")
	rep.set("assign.success_ratio", ratio(r.assignOK, r.assignRuns), "ratio")
	rep.set("assign.evictions", float64(r.stats.Evictions)/n, "count")
	rep.set("assign.pcr_rejections", float64(r.stats.PCRRejections)/n, "count")
	rep.set("assign.warm_hit_ratio", ratio(r.warmOK, r.warmRuns), "ratio")
	rep.set("sched.attempts", float64(r.schedRuns)/n, "count")
	rep.set("sched.success_ratio", ratio(r.schedOK, r.schedRuns), "ratio")
	rep.set("sched.displacements", float64(r.stats.SchedDisplacements)/n, "count")
	rep.set("pipeline.escalated_frac", ratio(r.escalated, r.loops), "ratio")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
