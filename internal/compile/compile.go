// Package compile is the whole-translation-unit compile path: it
// takes a multi-loop program through lint → assign/schedule (on
// pooled pipeline.Sessions) → stage scheduling → register allocation
// → emission → optional sim cross-validation, streaming loops through
// a bounded set of whole-loop workers.
//
// Every loop passes the same fixed stage sequence:
//
//	frontend → lint → schedule → stagesched → regalloc → emit → validate
//
// (frontend runs in the caller — see Source — and the stagesched and
// validate stages no-op unless enabled by Options). Loops are
// independent items over pool.Stream: each of Options.Workers
// goroutines takes the next loop in input order and runs every stage
// of it, one after the other, on one pooled session — the same
// per-loop function Executor.One runs on the caller's goroutine.
// Results are assembled in input order regardless of completion
// order, so Options.Emit observes exactly the sequence a sequential
// compiler would produce and output is byte-identical for every
// worker count.
//
// Cancellation is drain-through: before every stage a loop checks the
// run context and its own error, so once the context ends, in-flight
// loops skip their remaining stages and Run returns promptly with
// every loop marked canceled. There are no multi-channel selects and
// no goroutines in this package (they live in internal/pool); compile
// is on schedvet's critical list and holds to the same determinism
// contract as the scheduler itself.
package compile

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/emit"
	"clustersched/internal/frontend"
	"clustersched/internal/lint"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/pool"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/stagesched"
	"clustersched/internal/verify"
)

// Stage indices of the fixed stage graph, in flow order.
const (
	stageLint = iota
	stageSchedule
	stageStagesched
	stageRegalloc
	stageEmit
	stageValidate
	numStages
)

var stageNames = [numStages]string{"lint", "schedule", "stagesched", "regalloc", "emit", "validate"}

// Options configures an Executor.
type Options struct {
	// Pipeline are the per-loop scheduling options, passed verbatim to
	// the pooled pipeline.Sessions. Callers own the defaults: the zero
	// value selects the Simple assignment variant, which is almost
	// never what a compiler driver wants (cmd/clusterc and the server
	// pass HeuristicIterative explicitly, like the library facade).
	Pipeline pipeline.Options
	// Workers bounds the loops compiled at once: each worker runs
	// every stage of one loop before taking the next; <= 0 selects
	// GOMAXPROCS. Worker count changes wall-clock time only, never
	// output (deterministic assembly).
	Workers int
	// NoLint skips the per-loop graph lint stage (the pipeline still
	// rejects graphs with Error-severity findings).
	NoLint bool
	// StageSched runs stage scheduling (Eichenberger & Davidson) on
	// every kernel before register allocation.
	StageSched bool
	// Pipelined emits prologue, kernel, and epilogue instead of the
	// steady-state kernel only.
	Pipelined bool
	// Validate cross-validates every emitted kernel with
	// internal/sim's functional execution under the MVE allocation.
	Validate bool
	// SimIters is the iteration count for Validate; <= 0 selects sim's
	// default (3*MVE factor + 4).
	SimIters int
	// Emit, when set, is called once per loop in input order as
	// results retire, on the goroutine that called Run. It sees failed
	// loops too (Err non-nil).
	Emit func(*LoopResult)
}

// LoopResult is one loop's journey through the stages.
type LoopResult struct {
	// Index is the loop's position in the translation unit.
	Index int
	// Name and Line identify the loop in the source.
	Name string
	Line int
	// Graph is the loop's input dependence graph (the annotated graph
	// with inserted copies is Outcome.Assignment.Graph).
	Graph *ddg.Graph
	// Err is the first stage failure; a failed loop skips its later
	// stages, so at most one stage contributes.
	Err error
	// Outcome is the schedule-stage result (nil when that stage failed
	// or never ran).
	Outcome *pipeline.Outcome
	// Moved is the number of operations stage scheduling relocated
	// (zero unless Options.StageSched).
	Moved int
	// Alloc is the kernel's MVE register allocation.
	Alloc *regalloc.Allocation
	// Text is the emitted kernel (or full pipelined listing).
	Text string
}

// StageStat is one stage's aggregate over a Run.
type StageStat struct {
	Stage string `json:"stage"`
	// Loops counts loops the stage did work for (failed loops drain
	// through without being counted).
	Loops int `json:"loops"`
	// NS is the stage's summed wall-clock time across all loops and
	// workers (it can exceed the run's elapsed time when loops ran in
	// parallel).
	NS int64 `json:"ns"`
}

// Result is a whole-translation-unit compile.
type Result struct {
	// Loops holds every loop's result, in input order.
	Loops []LoopResult
	// Stages is the per-stage time breakdown, in flow order; stages
	// that did no work are omitted.
	Stages []StageStat
	// FrontendNS is the source-to-graph time (set by Source; zero when
	// the caller compiled the graphs itself).
	FrontendNS int64
	// Scheduled and Failed partition the loops.
	Scheduled int
	Failed    int
	// Stats aggregates the search-effort counters of every scheduled
	// loop (zero unless Pipeline.CollectStats or an Observer is set).
	Stats obs.Stats
}

// Executor is a reusable whole-TU compiler for one machine: it owns a
// free list of pipeline.Sessions (machine lint verdict, ResMII
// tables, scheduler slabs) that survives across Run calls, so
// compiling a stream of translation units pays the per-machine setup
// once. An Executor is safe for concurrent Run calls; the session
// pool is shared.
type Executor struct {
	m       *machine.Config
	opts    Options
	workers int

	// sessions is the free list of scheduling sessions, one per loop
	// in flight (single-communication sends and receives only).
	sessions chan *pipeline.Session
}

// NewExecutor builds an executor for machine m.
func NewExecutor(m *machine.Config, opts Options) *Executor {
	e := &Executor{m: m, opts: opts, workers: opts.Workers}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.sessions = make(chan *pipeline.Session, e.workers)
	return e
}

// Machine returns the executor's target machine.
func (e *Executor) Machine() *machine.Config { return e.m }

func (e *Executor) takeSession() *pipeline.Session {
	select {
	case s := <-e.sessions:
		return s
	default:
		return pipeline.NewSession(e.m, e.opts.Pipeline)
	}
}

func (e *Executor) putSession(s *pipeline.Session) {
	select {
	case e.sessions <- s:
	default:
	}
}

// Source compiles a whole translation unit from loop-language source:
// frontend, then Run over the compiled loops. Frontend errors (parse
// and graph construction) fail the whole unit, like any compiler.
func Source(ctx context.Context, src string, m *machine.Config, opts Options) (*Result, error) {
	t := obs.Now()
	loops, err := frontend.Compile(src)
	if err != nil {
		return nil, err
	}
	frontendNS := obs.Now().Sub(t).Nanoseconds()
	res, err := NewExecutor(m, opts).Run(ctx, loops)
	if res != nil {
		res.FrontendNS = frontendNS
	}
	return res, err
}

// Run compiles every loop of the translation unit. Per-loop failures
// land in LoopResult.Err and never abort the unit; the returned error
// is non-nil only when ctx ended the run early (every unfinished loop
// is then marked canceled). Results, stage stats, and Emit callbacks
// are identical for every worker count.
func (e *Executor) Run(ctx context.Context, loops []frontend.Loop) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{e: e, ctx: ctx, jobs: make([]job, len(loops))}
	for i := range loops {
		r.jobs[i].res = LoopResult{Index: i, Name: loops[i].Name, Line: loops[i].Line, Graph: loops[i].Graph}
	}

	// The sink reorders completion order back to input order: emit
	// callbacks fire for loop i only once loops 0..i-1 have retired.
	// It runs on this goroutine only (pool.Stream's contract), so the
	// cursor needs no synchronization.
	retired := make([]bool, len(r.jobs))
	next := 0
	pool.Stream(len(r.jobs), e.workers, r.compileLoop, func(i int) {
		retired[i] = true
		for next < len(retired) && retired[next] {
			if e.opts.Emit != nil {
				e.opts.Emit(&r.jobs[next].res)
			}
			next++
		}
	})

	res := r.assemble()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("compile: translation unit canceled: %w", err)
	}
	return res, nil
}

// One compiles a single loop through the same per-loop function a
// Run worker uses, on the calling goroutine — the form the clusterd
// compile endpoint uses under its per-loop result cache. Its result
// is identical to the loop's LoopResult from a Run over any unit
// containing it.
func (e *Executor) One(ctx context.Context, loop frontend.Loop) *LoopResult {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{e: e, ctx: ctx, jobs: make([]job, 1)}
	r.jobs[0].res = LoopResult{Name: loop.Name, Line: loop.Line, Graph: loop.Graph}
	r.compileLoop(0)
	return &r.jobs[0].res
}

// run is the per-Run state: the job slab plus per-stage counters
// (atomics — the workers compiling different loops share them).
type run struct {
	e    *Executor
	ctx  context.Context
	jobs []job
	ns   [numStages]atomic.Int64
	cnt  [numStages]atomic.Int64
}

// job carries one loop's intermediate state between stages. One
// worker owns a job from its first stage to its last, so the fields
// need no locks.
type job struct {
	res LoopResult
	in  sched.Input
	sch *sched.Schedule
}

// stageFns are the stage bodies in flow order. A body returns false
// when its stage is disabled, keeping disabled stages out of the
// per-stage breakdown.
var stageFns = [numStages]func(*run, *job) bool{
	stageLint:       (*run).lint,
	stageSchedule:   (*run).schedule,
	stageStagesched: (*run).stagesched,
	stageRegalloc:   (*run).regalloc,
	stageEmit:       (*run).emit,
	stageValidate:   (*run).validate,
}

// compileLoop runs loop i through every stage with the per-stage
// accounting. A loop that failed stops there, and a run whose context
// ended marks the loop canceled at the stage it reached — the
// drain-through that lets cancellation finish a Run without a single
// select.
func (r *run) compileLoop(i int) {
	j := &r.jobs[i]
	for idx, fn := range stageFns {
		if j.res.Err != nil {
			return
		}
		if err := r.ctx.Err(); err != nil {
			j.res.Err = fmt.Errorf("compile: loop %q canceled in %s stage: %w", j.res.Name, stageNames[idx], err)
			return
		}
		t := obs.Now()
		if fn(r, j) {
			r.ns[idx].Add(obs.Now().Sub(t).Nanoseconds())
			r.cnt[idx].Add(1)
		}
	}
}

func (r *run) lint(j *job) bool {
	if r.e.opts.NoLint {
		return false
	}
	if err := diag.AsError(lint.Graph(j.res.Graph)); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q rejected by lint: %w", j.res.Name, err)
	}
	return true
}

func (r *run) schedule(j *job) bool {
	s := r.e.takeSession()
	out, err := s.Schedule(r.ctx, j.res.Graph)
	r.e.putSession(s)
	if err != nil {
		j.res.Err = err
		return true
	}
	j.res.Outcome = out
	j.in = sched.Input{
		Graph:       out.Assignment.Graph,
		Machine:     r.e.m,
		ClusterOf:   out.Assignment.ClusterOf,
		CopyTargets: out.Assignment.CopyTargets,
		II:          out.II,
	}
	j.sch = out.Schedule
	return true
}

func (r *run) stagesched(j *job) bool {
	if !r.e.opts.StageSched {
		return false
	}
	j.res.Moved = stagesched.Optimize(j.in, j.sch)
	return true
}

func (r *run) regalloc(j *job) bool {
	// The independent schedule check runs here, after any stage moves,
	// so an invalid schedule can never reach emission.
	if err := verify.Schedule(j.in, j.sch); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q produced an invalid schedule: %w", j.res.Name, err)
		return true
	}
	j.res.Alloc = regalloc.AllocateMVE(j.in, j.sch)
	if err := j.res.Alloc.Validate(j.in, j.sch); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q register allocation invalid: %w", j.res.Name, err)
	}
	return true
}

func (r *run) emit(j *job) bool {
	if r.e.opts.Pipelined {
		j.res.Text = emit.Pipelined(j.in, j.sch)
	} else {
		j.res.Text = emit.Kernel(j.in, j.sch)
	}
	return true
}

func (r *run) validate(j *job) bool {
	if !r.e.opts.Validate {
		return false
	}
	if err := sim.Run(j.in, j.sch, j.res.Alloc, r.e.opts.SimIters); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q failed sim cross-validation: %w", j.res.Name, err)
	}
	return true
}

func (r *run) assemble() *Result {
	res := &Result{Loops: make([]LoopResult, len(r.jobs))}
	for i := range r.jobs {
		res.Loops[i] = r.jobs[i].res
		if r.jobs[i].res.Err != nil {
			res.Failed++
			continue
		}
		res.Scheduled++
		if r.jobs[i].res.Outcome != nil {
			res.Stats.Add(r.jobs[i].res.Outcome.Stats)
		}
	}
	for idx := 0; idx < numStages; idx++ {
		if n := r.cnt[idx].Load(); n > 0 {
			res.Stages = append(res.Stages, StageStat{Stage: stageNames[idx], Loops: int(n), NS: r.ns[idx].Load()})
		}
	}
	return res
}
