package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/lint"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
	"clustersched/internal/pool"
	"clustersched/internal/sched"
)

// DefaultSpeculativeWindow is the warm-seed window: after the MII
// candidate fails, candidate IIs are walked in groups of this many,
// and every candidate of a group is warm-started from the seed the
// previous group's last candidate left behind. The name predates the
// sequential walk; it is kept because the benchmark's replay of the
// search (perfbench) names it.
const DefaultSpeculativeWindow = 4

// Session is a reusable scheduling context for one machine
// configuration: it hoists everything the II search would otherwise
// recompute per call — the machine lint verdict, the per-machine
// ResMII resource totals, the assignment problem's slabs, and the
// schedulers' working buffers — and runs the warm-started II search
// described in the package comment. Scheduling many loops on one
// Session is equivalent to (and byte-identical with) calling
// RunContext per loop; it is just faster.
//
// A Session may be used from one goroutine at a time.
type Session struct {
	m     *machine.Config
	opts  Options
	mc    *mii.Machine
	mErr  error
	slack int

	// prob is the assignment problem, built for the session's first
	// loop and rebound (assign.Problem.Bind) at every later one, so
	// its slabs, capacity tables, and ordering scratch are reused
	// across the session.
	prob *assign.Problem
	// sc is the schedulers' working buffer set.
	sc sched.Scratch
	// recSc backs the session's MII computations (mii.Machine itself
	// stays immutable and shareable).
	recSc mii.RecScratch
}

// NewSession builds a session for machine m. The machine is linted
// once, here; a machine with Error-severity diagnostics makes every
// Schedule call fail with the same wrapped *diag.List error RunContext
// reports.
func NewSession(m *machine.Config, opts Options) *Session {
	s := &Session{
		m:     m,
		opts:  opts,
		mc:    mii.NewMachine(m),
		slack: opts.MaxIISlack,
	}
	if err := diag.AsError(lint.Machine(m)); err != nil {
		s.mErr = fmt.Errorf("pipeline: invalid machine: %w", err)
	}
	if s.slack <= 0 {
		s.slack = DefaultMaxIISlack
	}
	return s
}

// Schedule runs the II search for loop g. It is the session form of
// RunContext: same contract, same errors, same Outcome.
func (s *Session) Schedule(ctx context.Context, g *ddg.Graph) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.Timeout)
		defer cancel()
	}
	if err := diag.AsError(lint.Graph(g)); err != nil {
		return nil, fmt.Errorf("pipeline: invalid graph: %w", err)
	}
	if s.mErr != nil {
		return nil, s.mErr
	}

	tr := obs.New(ctx, s.opts.Observer, s.opts.CollectStats)
	tm := tr.BeginPhase(obs.PhaseMII, 0)
	out := &Outcome{MII: s.mc.MIIWith(g, &s.recSc)}
	tr.EndPhase(obs.PhaseMII, out.MII, tm, true)
	if s.prob == nil {
		s.prob = assign.NewProblem(g, s.m, s.opts.Assign)
	} else {
		s.prob.Bind(g)
	}

	// The walk: candidate IIs from the MII upward, committing the
	// first that schedules. The MII candidate runs cold (there is no
	// earlier failure to seed from). Later candidates come in windows
	// of DefaultSpeculativeWindow, and every candidate of a window is
	// warm-started from the seed left by the previous window's last
	// candidate (the MII candidate is the window before the first).
	maxII := out.MII + s.slack
	var seed, last []int
	for ii := out.MII; ii <= maxII; ii++ {
		if err := tr.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: search canceled at II %d (MII %d): %w", ii, out.MII, err)
		}
		if ii > out.MII && (ii-out.MII-1)%DefaultSpeculativeWindow == 0 {
			seed = last
		}
		res, sch, partial := s.probe(tr, ii, seed)
		if sch != nil {
			out.II, out.Assignment, out.Schedule = ii, res, sch
			if tr != nil {
				out.Stats = tr.Stats
			}
			return out, nil
		}
		if res == nil {
			out.AssignFailures++
		} else {
			out.SchedFailures++
		}
		last = partial
	}
	if err := tr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: search canceled (MII %d): %w", out.MII, err)
	}
	return nil, fmt.Errorf("pipeline: no schedule for %q within II <= %d (MII %d)",
		s.m.Name, maxII, out.MII)
}

// probe evaluates one candidate II: a warm-started attempt when a seed
// is available (and warm starts are enabled), falling back to a
// scratch attempt at the same II when the warm attempt fails, so a
// warm probe succeeds whenever a scratch probe would. On success sch
// is non-nil. On failure res tells which phase rejected the II (nil:
// assignment, non-nil: the scheduler), and partial is the warm seed
// the probe leaves behind — an owned copy, nil when the probe was
// canceled or left nothing to reuse.
func (s *Session) probe(tr *obs.Trace, ii int, seed []int) (res *assign.Result, sch *sched.Schedule, partial []int) {
	tr.IICandidate(ii)
	if len(seed) > 0 && !s.opts.DisableWarmStart {
		tr.WarmStart()
		if res, sch, _ := s.attempt(tr, ii, seed); sch != nil {
			return res, sch, nil
		}
		if tr.Canceled() {
			return nil, nil, nil
		}
		tr.WarmFallback()
	}
	res, sch, partial = s.attempt(tr, ii, nil)
	if sch != nil || tr.Canceled() {
		return res, sch, nil
	}
	return res, nil, slices.Clone(partial)
}

// attempt is one assignment+scheduling pass at ii. On failure it
// returns the warm seed the pass leaves behind: the assignment's
// consistent partial on an assignment failure, or the full committed
// assignment when the scheduler was the phase that rejected the II.
// The returned partial aliases the session's problem or res and must
// be copied before the problem runs again.
//
//schedvet:alloc-free
func (s *Session) attempt(tr *obs.Trace, ii int, seed []int) (*assign.Result, *sched.Schedule, []int) {
	ta := tr.BeginPhase(obs.PhaseAssign, ii)
	res, aok := s.prob.RunAt(ii, seed, tr)
	tr.EndPhase(obs.PhaseAssign, ii, ta, aok)
	if !aok {
		return nil, nil, s.prob.Partial()
	}
	in := sched.Input{
		Graph:       res.Graph,
		Machine:     s.m,
		ClusterOf:   res.ClusterOf,
		CopyTargets: res.CopyTargets,
		II:          ii,
		Trace:       tr,
		Scratch:     &s.sc,
	}
	var (
		sch *sched.Schedule
		sok bool
	)
	ts := tr.BeginPhase(obs.PhaseSched, ii)
	switch s.opts.Scheduler {
	case SMS:
		sch, sok = sched.SMS(in, s.opts.SchedBudgetRatio)
	default:
		sch, sok = sched.IMS(in, s.opts.SchedBudgetRatio)
	}
	tr.EndPhase(obs.PhaseSched, ii, ts, sok)
	if !sok {
		return res, nil, res.ClusterOf[:res.NumOriginal]
	}
	return res, sch, nil
}

// BatchResult is one loop's result within RunBatch, in input order.
type BatchResult struct {
	Outcome *Outcome
	Err     error
}

// RunBatch schedules every loop of loops on machine m, sharding the
// batch over a bounded worker pool with one reusable Session per
// worker. Results come back in input order and are byte-identical to
// calling RunContext(ctx, loop, m, opts) per loop — worker count
// changes only wall-clock time. workers <= 0 selects GOMAXPROCS.
func RunBatch(ctx context.Context, loops []*ddg.Graph, m *machine.Config, opts Options, workers int) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]BatchResult, len(loops))
	sessions := make(chan *Session, workers)
	err := pool.ForEach(ctx, len(loops), workers, func(i int) {
		var s *Session
		select {
		case s = <-sessions:
		default:
			s = NewSession(m, opts)
		}
		o, e := s.Schedule(ctx, loops[i])
		out[i] = BatchResult{Outcome: o, Err: e}
		select {
		case sessions <- s:
		default:
		}
	})
	if err != nil {
		for i := range out {
			if out[i].Outcome == nil && out[i].Err == nil {
				out[i].Err = fmt.Errorf("pipeline: batch canceled: %w", err)
			}
		}
	}
	return out
}
