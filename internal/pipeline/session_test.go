package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
	"clustersched/internal/sched"
	"clustersched/internal/verify"
)

// searchMachines are deliberately narrow, so a good fraction of the
// synthetic loops fail at MII and the II search actually escalates —
// the regime where warm starts do something.
func searchMachines() []*machine.Config {
	return []*machine.Config{
		machine.NewBusedGP(2, 1, 1),
		machine.NewGrid4(2),
	}
}

// behavioralStats strips the fields excluded from the determinism
// contract (docs/OBSERVABILITY.md): the wall-clock phase times.
func behavioralStats(st obs.Stats) obs.Stats {
	st.MIITime, st.AssignTime, st.SchedTime = 0, 0, 0
	return st
}

// diffOutcomes reports the first difference between two outcomes that
// the determinism contract says must not exist.
func diffOutcomes(a, b *Outcome) error {
	switch {
	case a.II != b.II || a.MII != b.MII:
		return fmt.Errorf("II/MII %d/%d vs %d/%d", a.II, a.MII, b.II, b.MII)
	case a.AssignFailures != b.AssignFailures || a.SchedFailures != b.SchedFailures:
		return fmt.Errorf("failures %d/%d vs %d/%d",
			a.AssignFailures, a.SchedFailures, b.AssignFailures, b.SchedFailures)
	case !reflect.DeepEqual(a.Assignment.ClusterOf, b.Assignment.ClusterOf):
		return fmt.Errorf("ClusterOf %v vs %v", a.Assignment.ClusterOf, b.Assignment.ClusterOf)
	case !reflect.DeepEqual(a.Assignment.CopyTargets, b.Assignment.CopyTargets):
		return fmt.Errorf("CopyTargets %v vs %v", a.Assignment.CopyTargets, b.Assignment.CopyTargets)
	case a.Assignment.Copies != b.Assignment.Copies || a.Assignment.Evictions != b.Assignment.Evictions:
		return fmt.Errorf("copies/evictions %d/%d vs %d/%d",
			a.Assignment.Copies, a.Assignment.Evictions, b.Assignment.Copies, b.Assignment.Evictions)
	case !reflect.DeepEqual(a.Schedule.CycleOf, b.Schedule.CycleOf):
		return fmt.Errorf("CycleOf %v vs %v", a.Schedule.CycleOf, b.Schedule.CycleOf)
	case behavioralStats(a.Stats) != behavioralStats(b.Stats):
		return fmt.Errorf("stats {%s} vs {%s}", behavioralStats(a.Stats), behavioralStats(b.Stats))
	}
	return nil
}

// TestWarmStartNeverRaisesII checks the warm-start soundness
// guarantee: a warm probe falls back to a scratch run at the same II,
// so warm search succeeds whenever scratch search does and never
// commits a higher II — and its schedules still verify independently.
func TestWarmStartNeverRaisesII(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 17, Count: 40})
	for _, m := range searchMachines() {
		warmOpts := Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			CollectStats: true,
			MaxIISlack:   16,
		}
		coldOpts := warmOpts
		coldOpts.DisableWarmStart = true
		warmS := NewSession(m, warmOpts)
		coldS := NewSession(m, coldOpts)
		var warmAgg, coldAgg obs.Stats
		for i, g := range loops {
			wo, werr := warmS.Schedule(context.Background(), g)
			co, cerr := coldS.Schedule(context.Background(), g)
			if cerr == nil && werr != nil {
				t.Fatalf("%s loop %d: scratch found II %d but warm search failed: %v", m.Name, i, co.II, werr)
			}
			if werr != nil {
				continue
			}
			warmAgg.Add(wo.Stats)
			if cerr == nil {
				coldAgg.Add(co.Stats)
				if wo.II > co.II {
					t.Errorf("%s loop %d: warm II %d above scratch II %d", m.Name, i, wo.II, co.II)
				}
			}
			in := sched.Input{
				Graph:       wo.Assignment.Graph,
				Machine:     m,
				ClusterOf:   wo.Assignment.ClusterOf,
				CopyTargets: wo.Assignment.CopyTargets,
				II:          wo.II,
			}
			if err := verify.Schedule(in, wo.Schedule); err != nil {
				t.Errorf("%s loop %d: warm schedule invalid: %v", m.Name, i, err)
			}
		}
		if warmAgg.IIWarmStarts == 0 {
			t.Errorf("%s: warm session never warm-started", m.Name)
		}
		if warmAgg.IIWarmFallbacks > warmAgg.IIWarmStarts {
			t.Errorf("%s: more fallbacks (%d) than warm starts (%d)",
				m.Name, warmAgg.IIWarmFallbacks, warmAgg.IIWarmStarts)
		}
		if coldAgg.IIWarmStarts != 0 || coldAgg.IIWarmFallbacks != 0 {
			t.Errorf("%s: DisableWarmStart still warm-started: %d/%d",
				m.Name, coldAgg.IIWarmStarts, coldAgg.IIWarmFallbacks)
		}
	}
}

// TestRunBatchMatchesPerLoop checks that sharding a loop set over
// workers sharing one session returns, in input order, exactly what one-shot
// RunContext returns per loop.
func TestRunBatchMatchesPerLoop(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 5, Count: 60})
	m := machine.NewBusedGP(2, 2, 1)
	opts := Options{
		Assign:       assign.Options{Variant: assign.HeuristicIterative},
		CollectStats: true,
	}
	batch := RunBatch(context.Background(), loops, m, opts, 4)
	if len(batch) != len(loops) {
		t.Fatalf("batch returned %d results for %d loops", len(batch), len(loops))
	}
	for i, g := range loops {
		ref, rerr := RunContext(context.Background(), g, m, opts)
		br := batch[i]
		if (rerr == nil) != (br.Err == nil) {
			t.Fatalf("loop %d: one-shot err %v, batch err %v", i, rerr, br.Err)
		}
		if rerr != nil {
			continue
		}
		if err := diffOutcomes(ref, br.Outcome); err != nil {
			t.Errorf("loop %d: one-shot vs batch: %v", i, err)
		}
	}
}

// TestRunBatchCanceled checks that a canceled batch reports an error
// on every unfinished entry instead of returning zero values.
func TestRunBatchCanceled(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 9, Count: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, br := range RunBatch(ctx, loops, machine.NewBusedGP(2, 2, 1), Options{}, 2) {
		if br.Outcome == nil && br.Err == nil {
			t.Fatal("canceled batch entry has neither outcome nor error")
		}
	}
}

// TestSessionReuseMatchesFreshSessions schedules the same loops twice
// through one Session; buffer reuse across loops must not leak state
// into later outcomes.
func TestSessionReuseMatchesFreshSessions(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 12, Count: 30})
	m := machine.NewGrid4(2)
	opts := Options{
		Assign:       assign.Options{Variant: assign.HeuristicIterative},
		CollectStats: true,
		MaxIISlack:   16,
	}
	s := NewSession(m, opts)
	for i, g := range loops {
		first, ferr := s.Schedule(context.Background(), g)
		ref, rerr := NewSession(m, opts).Schedule(context.Background(), g)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("loop %d: reused err %v, fresh err %v", i, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if err := diffOutcomes(first, ref); err != nil {
			t.Errorf("loop %d: reused vs fresh session: %v", i, err)
		}
	}
}

// TestSessionConcurrentMatchesFresh shares one Session between four
// goroutines under each scheduler: every loop's outcome must equal a
// fresh RunContext's, whichever working set its call took and
// whatever the other goroutines scheduled on it before.
func TestSessionConcurrentMatchesFresh(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 33, Count: 200})
	m := machine.NewBusedGP(2, 1, 1)
	for _, sch := range []Scheduler{IMS, SMS} {
		opts := Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			Scheduler:    sch,
			CollectStats: true,
		}
		s := NewSession(m, opts)
		got := make([]*Outcome, len(loops))
		errs := make([]error, len(loops))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(loops); i = int(next.Add(1) - 1) {
					got[i], errs[i] = s.Schedule(context.Background(), loops[i])
				}
			}()
		}
		wg.Wait()
		for i, g := range loops {
			ref, rerr := RunContext(context.Background(), g, m, opts)
			if (rerr == nil) != (errs[i] == nil) {
				t.Fatalf("%s loop %d: fresh err %v, shared err %v", sch, i, rerr, errs[i])
			}
			if rerr != nil {
				continue
			}
			if err := diffOutcomes(ref, got[i]); err != nil {
				t.Errorf("%s loop %d: fresh vs shared session: %v", sch, i, err)
			}
		}
	}
}

// FuzzPipelineWarmStart feeds random loops and machines through the
// warm search and the scratch (warm-disabled) search: warm must
// succeed whenever scratch does without raising the II, and every
// schedule must pass independent verification.
func FuzzPipelineWarmStart(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(2), uint8(0))
	f.Add(int64(4), uint8(0), uint8(1))
	f.Add(int64(5), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, mSel, sSel uint8) {
		machines := []*machine.Config{
			machine.NewBusedGP(2, 1, 1),
			machine.NewGrid4(2),
			machine.NewBusedGP(2, 2, 1),
		}
		m := machines[int(mSel)%len(machines)]
		g := loopgen.Loop(rand.New(rand.NewSource(seed)))
		warmOpts := Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			Scheduler:    Scheduler(int(sSel) % 2),
			CollectStats: true,
			MaxIISlack:   16,
		}
		coldOpts := warmOpts
		coldOpts.DisableWarmStart = true

		wo, werr := NewSession(m, warmOpts).Schedule(context.Background(), g)
		co, cerr := NewSession(m, coldOpts).Schedule(context.Background(), g)

		if cerr == nil && werr != nil {
			t.Fatalf("scratch found II %d but warm search failed: %v", co.II, werr)
		}
		if werr != nil {
			return
		}
		if cerr == nil && wo.II > co.II {
			t.Fatalf("warm II %d above scratch II %d", wo.II, co.II)
		}
		in := sched.Input{
			Graph:       wo.Assignment.Graph,
			Machine:     m,
			ClusterOf:   wo.Assignment.ClusterOf,
			CopyTargets: wo.Assignment.CopyTargets,
			II:          wo.II,
		}
		if err := verify.Schedule(in, wo.Schedule); err != nil {
			t.Fatalf("warm schedule invalid: %v", err)
		}
	})
}

// BenchmarkRunBatch measures batch throughput over the synthetic suite
// at several worker counts; scripts/check.sh smoke-runs it.
func BenchmarkRunBatch(b *testing.B) {
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: 100})
	m := machine.NewBusedGP(2, 2, 1)
	opts := Options{Assign: assign.Options{Variant: assign.HeuristicIterative}}
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunBatch(context.Background(), loops, m, opts, w)
			}
		})
	}
}

// BenchmarkSessionSchedule isolates the single-worker session savings:
// the same suite through one reusable Session, warm starts on and off,
// against the per-loop one-shot path.
func BenchmarkSessionSchedule(b *testing.B) {
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: 100})
	m := machine.NewBusedGP(2, 2, 1)
	opts := Options{Assign: assign.Options{Variant: assign.HeuristicIterative}}
	b.Run("session-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSession(m, opts)
			for _, g := range loops {
				s.Schedule(context.Background(), g)
			}
		}
	})
	b.Run("session-scratch", func(b *testing.B) {
		cold := opts
		cold.DisableWarmStart = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSession(m, cold)
			for _, g := range loops {
				s.Schedule(context.Background(), g)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range loops {
				Run(g, m, opts)
			}
		}
	})
}

// TestCancelBetweenCandidates checks the RunContext promise that
// cancellation takes effect between II candidates: an observer that
// cancels on the MII+1 candidate event must see no candidate after it.
func TestCancelBetweenCandidates(t *testing.T) {
	m := machine.NewBusedGP(2, 1, 1)
	opts := Options{Assign: assign.Options{Variant: assign.HeuristicIterative}}
	var g *ddg.Graph
	var mii int
	for _, l := range loopgen.Suite(loopgen.Options{Seed: 33, Count: 200}) {
		out, err := RunContext(context.Background(), l, m, opts)
		if err == nil && out.II > out.MII {
			g, mii = l, out.MII
			break
		}
	}
	if g == nil {
		t.Fatal("no suite loop escalates past its MII on the narrow machine")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var after []int
	canceled := false
	opts.Observer = obs.ObserverFunc(func(e obs.Event) {
		if e.Kind != obs.KindIICandidate {
			return
		}
		if canceled {
			after = append(after, e.II)
		}
		if e.II == mii+1 {
			canceled = true
			cancel()
		}
	})
	_, err := RunContext(ctx, g, m, opts)
	if !canceled {
		t.Fatalf("search never reached candidate MII+1 = %d", mii+1)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(after) > 0 {
		t.Fatalf("candidates %v probed after cancellation at II %d", after, mii+1)
	}
}
