package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"clustersched/internal/assign"
	"clustersched/internal/compile"
	"clustersched/internal/frontend"
	"clustersched/internal/pipeline"
)

// Compile-suite mode (scripts/bench.sh -compile): time the whole-TU
// compile path — lint, schedule, stage scheduling, register
// allocation, emission — over the regression corpus (the Livermore
// kernels plus the fuzz-mined loopgen corpus checked into
// internal/compile). Three measurements:
//
//   - per_loop: the cold path, a fresh executor per loop, so every
//     loop pays machine setup and session construction — what running
//     clusterc once per loop costs.
//   - w1: the streaming executor with one whole-loop worker. The gap
//     to per_loop is the session-reuse and streaming win.
//   - w4: the same executor with four whole-loop workers. On a
//     multi-core host this is the loop-parallel speedup; the cpus
//     field records how many cores the measurement actually had, and
//     on a single-core host w4/w1 is honestly ~1.
//
// Before any timing, the full corpus runs once with sim
// cross-validation enabled: a kernel that does not execute
// functionally identical to the naive loop fails the bench outright,
// so the committed numbers always describe correct output.

// compileSection is one worker configuration's fastest-pass numbers.
type compileSection struct {
	Workers     int                 `json:"workers"`
	TotalNS     int64               `json:"total_ns"`
	NSPerOp     int64               `json:"ns_per_op"`
	LoopsPerSec float64             `json:"loops_per_sec"`
	AllocsPerOp int64               `json:"allocs_per_op"`
	BytesPerOp  int64               `json:"bytes_per_op"`
	Stages      []compile.StageStat `json:"stages"`
}

// compileOptions is the benchmarked configuration: the facade's
// default scheduling options with stage scheduling on, validation off
// (the untimed validation pass covers correctness).
func compileOptions(workers int) compile.Options {
	return compile.Options{
		Pipeline: pipeline.Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			CollectStats: true,
		},
		Workers:    workers,
		StageSched: true,
	}
}

// measureCompileStream times the streaming pipeline over the corpus
// at one worker count, fastest of reps passes. A fresh executor per
// pass keeps every pass cold-session, like the committed numbers.
func measureCompileStream(ctx context.Context, loops []frontend.Loop, workers, reps int) (compileSection, error) {
	sec := compileSection{Workers: workers}
	var best time.Duration
	var bestAllocs, bestBytes uint64
	compiled := 0
	for r := 0; r < reps; r++ {
		ex := compile.NewExecutor(m2c(), compileOptions(workers))
		m0, b0 := memCounters()
		start := time.Now()
		res, err := ex.Run(ctx, loops)
		d := time.Since(start)
		m1, b1 := memCounters()
		if err != nil {
			return sec, err
		}
		if res.Failed > 0 {
			return sec, fmt.Errorf("compile bench: %d corpus loops failed at workers=%d", res.Failed, workers)
		}
		compiled = res.Scheduled
		if r == 0 || d < best {
			best = d
			sec.Stages = res.Stages
		}
		if r == 0 || m1-m0 < bestAllocs {
			bestAllocs = m1 - m0
		}
		if r == 0 || b1-b0 < bestBytes {
			bestBytes = b1 - b0
		}
	}
	sec.TotalNS = best.Nanoseconds()
	sec.NSPerOp = best.Nanoseconds() / int64(compiled)
	sec.LoopsPerSec = float64(compiled) / best.Seconds()
	sec.AllocsPerOp = int64(bestAllocs) / int64(compiled)
	sec.BytesPerOp = int64(bestBytes) / int64(compiled)
	return sec, nil
}

// measureCompilePerLoop times the cold path: a fresh executor (and so
// fresh sessions) for every loop, fastest of reps passes.
func measureCompilePerLoop(ctx context.Context, loops []frontend.Loop, reps int) (int64, error) {
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, l := range loops {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			lr := compile.NewExecutor(m2c(), compileOptions(1)).One(ctx, l)
			if lr.Err != nil {
				return 0, fmt.Errorf("compile bench: loop %s: %w", l.Name, lr.Err)
			}
		}
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
	}
	return best.Nanoseconds() / int64(len(loops)), nil
}

// validateCorpus runs the corpus once with sim cross-validation on;
// any kernel whose pipelined execution diverges from the naive loop
// semantics fails the bench.
func validateCorpus(ctx context.Context, loops []frontend.Loop) error {
	opts := compileOptions(0)
	opts.Validate = true
	res, err := compile.NewExecutor(m2c(), opts).Run(ctx, loops)
	if err != nil {
		return err
	}
	for i := range res.Loops {
		if e := res.Loops[i].Err; e != nil {
			return fmt.Errorf("compile bench: corpus validation: %w", e)
		}
	}
	return nil
}

// compileJSON is -compilejson: validate the corpus, measure the three
// configurations, and emit the BENCH_compile.json summary on stdout.
func compileJSON(ctx context.Context, reps int) error {
	loops, err := compile.Corpus()
	if err != nil {
		return err
	}
	if reps < 1 {
		reps = 1
	}
	if err := validateCorpus(ctx, loops); err != nil {
		return err
	}
	perLoop, err := measureCompilePerLoop(ctx, loops, reps)
	if err != nil {
		return err
	}
	w1, err := measureCompileStream(ctx, loops, 1, reps)
	if err != nil {
		return err
	}
	w4, err := measureCompileStream(ctx, loops, 4, reps)
	if err != nil {
		return err
	}
	summary := struct {
		Name    string `json:"name"`
		Machine string `json:"machine"`
		// CPUs is the core count the measurement ran on: the w4/w1
		// speedup is only meaningful relative to it (on one core the
		// honest expectation is ~1.0).
		CPUs        int            `json:"cpus"`
		Loops       int            `json:"loops"`
		Compiled    int            `json:"compiled"`
		Reps        int            `json:"reps"`
		PerLoopNSOp int64          `json:"per_loop_ns_per_op"`
		W1          compileSection `json:"w1"`
		W4          compileSection `json:"w4"`
		SpeedupW4W1 float64        `json:"speedup_w4_over_w1"`
		SpeedupSess float64        `json:"speedup_stream_over_per_loop"`
	}{
		Name:        "compile_suite",
		Machine:     m2c().Name,
		CPUs:        runtime.NumCPU(),
		Loops:       len(loops),
		Compiled:    len(loops),
		Reps:        reps,
		PerLoopNSOp: perLoop,
		W1:          w1,
		W4:          w4,
		SpeedupW4W1: float64(w1.TotalNS) / float64(w4.TotalNS),
		SpeedupSess: float64(perLoop) / float64(w1.NSPerOp),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(summary)
}
