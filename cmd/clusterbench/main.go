// Clusterbench regenerates the paper's evaluation: every figure and
// table of Section 6, as ΔII histograms of the clustered machines
// against their equally wide unified baselines.
//
// Usage:
//
//	clusterbench                 # run every experiment on the full suite
//	clusterbench -exp fig14      # one experiment
//	clusterbench -count 200      # smaller suite for a quick look
//	clusterbench -scheduler sms  # use the swing modulo scheduler
//	clusterbench -table1         # print the loop-suite statistics
//	clusterbench -stats          # add search-effort statistics per row
//	clusterbench -trace ev.json  # stream every pipeline event as JSON lines
//	clusterbench -benchjson      # time the pipeline over the suite, emit JSON
//	clusterbench -assignjson     # time cluster assignment alone, emit JSON
//	clusterbench -compilejson    # time the whole-TU compile path over the corpus
//	clusterbench -trend -trendsha abc1234   # emit dated trend rows for BENCH_TREND.jsonl
//	clusterbench -cpuprofile p.out -assignjson   # profile a run with pprof
//	clusterbench -server http://127.0.0.1:8425   # replay the suite against clusterd
//
// Ctrl-C cancels the run: in-flight loops finish, no new work starts,
// and the process exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"clustersched/internal/assign"
	"clustersched/internal/client"
	"clustersched/internal/ddg"
	"clustersched/internal/ddgio"
	"clustersched/internal/diag"
	"clustersched/internal/experiments"
	"clustersched/internal/lint"
	livermorepkg "clustersched/internal/livermore"
	"clustersched/internal/loopgen"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/report"
	"clustersched/internal/server"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment ID to run (fig12..fig19, table3, grid); empty = all")
		seed        = flag.Int64("seed", 1, "loop suite seed")
		count       = flag.Int("count", loopgen.DefaultCount, "number of loops in the suite")
		scheduler   = flag.String("scheduler", "ims", "phase-two scheduler: ims or sms")
		table1      = flag.Bool("table1", false, "print Table 1 loop statistics and exit")
		workers     = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		ext         = flag.Bool("ext", false, "run the extension experiments (ablations, ring topology) instead of the paper set")
		registers   = flag.Bool("registers", false, "run the register-pressure study and exit")
		csv         = flag.Bool("csv", false, "emit results as CSV instead of tables")
		livermore   = flag.Bool("livermore", false, "run the real Livermore-kernel study and exit")
		markdown    = flag.Bool("markdown", false, "emit a full Markdown reproduction report (-ext adds the extension sections)")
		statsFlag   = flag.Bool("stats", false, "collect search-effort statistics and print them per row (implied by -trace)")
		trace       = flag.String("trace", "", "write a JSON-lines event stream of every pipeline run to this file (- for stderr)")
		benchjson   = flag.Bool("benchjson", false, "time the pipeline over the suite and emit a JSON summary (ns/op plus aggregated stats) on stdout")
		benchreps   = flag.Int("benchreps", 3, "passes over the suite for -benchjson; ns_per_op reports the fastest pass")
		compilejson = flag.Bool("compilejson", false, "time the whole-TU compile path over the regression corpus (per-loop cold, streaming w1, streaming w4) and emit a JSON summary on stdout")
		warmstart   = flag.String("warmstart", "on", "warm-started II search: on or off (off forces every candidate II to assign from scratch)")
		serverURL   = flag.String("server", "", "replay the suite against a running clusterd at this base URL (cold pass then cached pass) and emit a JSON summary")
		fleetURL    = flag.String("fleet", "", "replay the suite through a running clusterlb at this base URL and emit a JSON summary with latency quantiles and hedge counters; diffs against a committed BENCH_fleet.json under -basetol")
		assignjson  = flag.Bool("assignjson", false, "time cluster assignment alone (no scheduling) over the suite on several machines and emit a JSON summary")
		trend       = flag.Bool("trend", false, "re-measure the assignment and pipeline suites and emit dated JSON lines (one per suite) for appending to BENCH_TREND.jsonl")
		trendsha    = flag.String("trendsha", "", "git SHA recorded in the -trend rows (bench.sh passes git rev-parse --short HEAD)")
		baseline    = flag.Bool("baseline", false, "re-run the assignment and pipeline suites and diff against the committed BENCH_assign.json / BENCH_pipeline.json; non-zero exit on regression past -basetol")
		basetol     = flag.Float64("basetol", 0.10, "allowed fractional regression for -baseline (0.10 = 10%)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	// Reject flag combinations whose extra flags would be silently
	// ignored by the mode dispatch below.
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if conflicts := flagConflicts(setFlags); len(conflicts) > 0 {
		diag.Text(os.Stderr, conflicts)
		os.Exit(2)
	}

	if err := startProfiles(*cpuprofile, *memprofile); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	loops := loopgen.Suite(loopgen.Options{Seed: *seed, Count: *count})
	if *table1 {
		fmt.Print(loopgen.Stats(loops).Table())
		return
	}

	var warm bool
	switch strings.ToLower(*warmstart) {
	case "on", "":
		warm = true
	case "off":
		warm = false
	default:
		fmt.Fprintf(os.Stderr, "clusterbench: unknown -warmstart %q (want on or off)\n", *warmstart)
		os.Exit(2)
	}

	opts := experiments.Options{Parallelism: *workers, CollectStats: *statsFlag, DisableWarmStart: !warm}
	switch strings.ToLower(*scheduler) {
	case "ims":
		opts.Scheduler = pipeline.IMS
	case "sms":
		opts.Scheduler = pipeline.SMS
	default:
		fmt.Fprintf(os.Stderr, "clusterbench: unknown scheduler %q (want ims or sms)\n", *scheduler)
		os.Exit(2)
	}
	if *trace != "" {
		w := os.Stderr
		if *trace != "-" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		opts.Observer = obs.NewJSON(w)
	}

	if *serverURL != "" {
		if err := serverReplay(ctx, *serverURL, loops, strings.ToLower(*scheduler)); err != nil {
			fatal(err)
		}
		return
	}

	if *fleetURL != "" {
		if err := fleetReplay(ctx, *fleetURL, loops, strings.ToLower(*scheduler), *benchreps, *basetol, setFlags["basetol"]); err != nil {
			fatal(err)
		}
		return
	}

	if *benchjson {
		if err := benchJSON(ctx, loops, opts, *workers, warm, *benchreps); err != nil {
			fatal(err)
		}
		return
	}

	if *assignjson {
		if err := assignJSON(ctx, loops); err != nil {
			fatal(err)
		}
		return
	}

	if *compilejson {
		if err := compileJSON(ctx, *benchreps); err != nil {
			fatal(err)
		}
		return
	}

	if *trend {
		if err := trendRun(ctx, loops, opts.Scheduler, *workers, warm, *benchreps, *trendsha); err != nil {
			fatal(err)
		}
		return
	}

	if *baseline {
		if err := baselineRun(ctx, loops, opts.Scheduler, *benchreps, *basetol); err != nil {
			fatal(err)
		}
		return
	}

	if *markdown {
		if err := report.Markdown(os.Stdout, loops, report.Options{Run: opts, Extensions: *ext}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *livermore {
		kernels, err := livermorepkg.Kernels()
		if err != nil {
			fatal(err)
		}
		rep, err := experiments.LivermoreStudyContext(ctx, kernels, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Report())
		return
	}

	if *registers {
		study, err := experiments.RegisterStudyContext(ctx, loops, opts)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Print(study.CSV())
		} else {
			fmt.Print(study.Report())
		}
		return
	}

	if *exp == "baseline" {
		res, err := experiments.BaselineComparisonContext(ctx, loops, opts)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Report())
		}
		return
	}
	configs := experiments.All()
	if *ext {
		configs = experiments.Extensions()
	}
	if *exp != "" {
		cfg, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "clusterbench: unknown experiment %q (or 'baseline')\n", *exp)
			os.Exit(2)
		}
		configs = []experiments.Config{cfg}
	}
	// Lint every machine the selected experiments will run before
	// starting: a broken configuration fails fast with diagnostics
	// here instead of mid-run pipeline errors on every loop.
	var machineDiags []diag.Diagnostic
	for _, cfg := range configs {
		for _, row := range cfg.Rows {
			machineDiags = append(machineDiags, lint.Machine(row.Machine)...)
		}
	}
	if diag.CountErrors(machineDiags) > 0 {
		diag.Text(os.Stderr, machineDiags)
		os.Exit(1)
	}
	for _, cfg := range configs {
		var (
			res experiments.Result
			err error
		)
		if cfg.ID == "abl-order" {
			// The ordering ablation needs ID-shuffled loops; see the
			// RunOrderingAblation documentation.
			res, err = experiments.RunOrderingAblationContext(ctx, loops, opts)
		} else {
			res, err = experiments.RunContext(ctx, cfg, loops, opts)
		}
		if *csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Report())
			if opts.CollectStats || opts.Observer != nil {
				for _, row := range res.Rows {
					fmt.Printf("  stats %-30s %s\n", row.Label, row.Stats.String())
				}
				fmt.Println()
			}
		}
		if err != nil {
			fatal(err)
		}
	}
}

// benchJSON times the full pipeline — HeuristicIterative assignment
// plus modulo scheduling — over the synthetic suite on the paper's
// 2-cluster GP machine and emits one JSON object with ns/op and the
// aggregated search-effort statistics. The suite runs through
// pipeline.RunBatch: per-worker reusable sessions with warm-started II
// search (unless -warmstart=off), sharded over -workers goroutines.
// ns_per_op is wall-clock over scheduled loops, so -workers raises
// throughput directly; -workers 1 isolates the session/warm-start
// savings alone. The suite runs -benchreps times and ns_per_op reports
// the fastest pass: on a shared host a single pass is hostage to
// whatever else holds the CPU, and the minimum is the standard
// least-interfered estimate (outcomes and counters are deterministic,
// so repetition changes timing only). scripts/bench.sh redirects this
// into BENCH_pipeline.json.
func benchJSON(ctx context.Context, loops []*ddg.Graph, opts experiments.Options, workers int, warm bool, reps int) error {
	m := m2c()
	popts := pipeline.Options{
		Assign:           assign.Options{Variant: assign.HeuristicIterative},
		Scheduler:        opts.Scheduler,
		Observer:         opts.Observer,
		CollectStats:     true,
		DisableWarmStart: !warm,
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if reps < 1 {
		reps = 1
	}
	var (
		results []pipeline.BatchResult
		elapsed time.Duration
		allocs  uint64
		bytes   uint64
	)
	for r := 0; r < reps; r++ {
		m0, b0 := memCounters()
		start := time.Now()
		results = pipeline.RunBatch(ctx, loops, m, popts, workers)
		d := time.Since(start)
		m1, b1 := memCounters()
		if r == 0 || d < elapsed {
			elapsed = d
		}
		if r == 0 || m1-m0 < allocs {
			allocs = m1 - m0
		}
		if r == 0 || b1-b0 < bytes {
			bytes = b1 - b0
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	var agg obs.Stats
	scheduled := 0
	for _, r := range results {
		if r.Err != nil || r.Outcome == nil {
			continue
		}
		agg.Add(r.Outcome.Stats)
		scheduled++
	}
	summary := struct {
		Name        string    `json:"name"`
		Machine     string    `json:"machine"`
		Loops       int       `json:"loops"`
		Scheduled   int       `json:"scheduled"`
		Workers     int       `json:"workers"`
		WarmStart   bool      `json:"warm_start"`
		Reps        int       `json:"reps"`
		TotalNS     int64     `json:"total_ns"`
		NSPerOp     int64     `json:"ns_per_op"`
		AllocsPerOp int64     `json:"allocs_per_op"`
		BytesPerOp  int64     `json:"bytes_per_op"`
		Stats       obs.Stats `json:"stats"`
	}{
		Name:      "pipeline_suite",
		Machine:   m.Name,
		Loops:     len(loops),
		Scheduled: scheduled,
		Workers:   workers,
		WarmStart: warm,
		Reps:      reps,
		TotalNS:   elapsed.Nanoseconds(),
		Stats:     agg,
	}
	if scheduled > 0 {
		summary.NSPerOp = elapsed.Nanoseconds() / int64(scheduled)
		summary.AllocsPerOp = int64(allocs) / int64(scheduled)
		summary.BytesPerOp = int64(bytes) / int64(scheduled)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(summary)
}

// serverReplay drives a running clusterd with the synthetic suite:
// one cold pass (every loop a distinct request) and one identical
// cached pass, then emits a JSON summary with the throughput of each
// and the cache's view from /statsz. scripts/bench.sh redirects this
// into BENCH_server.json.
func serverReplay(ctx context.Context, baseURL string, loops []*ddg.Graph, scheduler string) error {
	c := client.New(baseURL, nil)
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("no clusterd at %s: %w", baseURL, err)
	}

	reqs := make([]server.ScheduleRequest, len(loops))
	for i, g := range loops {
		var buf strings.Builder
		if err := ddgio.Write(&buf, fmt.Sprintf("loop%d", i), g); err != nil {
			return err
		}
		reqs[i] = server.ScheduleRequest{DDG: buf.String(), Machine: "gp:2:2:1", Scheduler: scheduler}
	}

	pass := func() (elapsed time.Duration, hits, failed int, err error) {
		start := time.Now()
		for _, req := range reqs {
			if ctx.Err() != nil {
				return 0, 0, 0, ctx.Err()
			}
			_, cached, err := c.Schedule(ctx, req)
			switch {
			case err == nil && cached:
				hits++
			case err != nil:
				// Some synthetic loops exceed the II slack on a narrow
				// machine; those fail identically in both passes.
				failed++
			}
		}
		return time.Since(start), hits, failed, nil
	}

	coldNS, coldHits, coldFailed, err := pass()
	if err != nil {
		return err
	}
	cachedNS, cachedHits, cachedFailed, err := pass()
	if err != nil {
		return err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}

	rps := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(len(reqs)) / d.Seconds()
	}
	summary := struct {
		Name         string  `json:"name"`
		Server       string  `json:"server"`
		Machine      string  `json:"machine"`
		Loops        int     `json:"loops"`
		ColdNS       int64   `json:"cold_total_ns"`
		ColdRPS      float64 `json:"cold_rps"`
		ColdHits     int     `json:"cold_hits"`
		ColdFailed   int     `json:"cold_failed"`
		CachedNS     int64   `json:"cached_total_ns"`
		CachedRPS    float64 `json:"cached_rps"`
		CachedHits   int     `json:"cached_hits"`
		CachedFailed int     `json:"cached_failed"`
		Speedup      float64 `json:"speedup"`
		CacheHits    uint64  `json:"server_cache_hits"`
		CacheMisses  uint64  `json:"server_cache_misses"`
	}{
		Name:    "server_suite",
		Server:  baseURL,
		Machine: "gp:2:2:1",
		Loops:   len(reqs),
		ColdNS:  coldNS.Nanoseconds(), ColdRPS: rps(coldNS), ColdHits: coldHits, ColdFailed: coldFailed,
		CachedNS: cachedNS.Nanoseconds(), CachedRPS: rps(cachedNS), CachedHits: cachedHits, CachedFailed: cachedFailed,
		CacheHits: st.Cache.Hits, CacheMisses: st.Cache.Misses,
	}
	if cachedNS > 0 {
		summary.Speedup = float64(coldNS) / float64(cachedNS)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(summary)
}

// assignJSON times cluster assignment alone — no modulo scheduling —
// over the synthetic suite at each loop's MII, on the machine shapes
// the assignment benchmarks cover (broadcast 2- and 4-cluster, the
// point-to-point grid). The per-machine rows include the incremental
// engine's work counters: assign_deltas / assign_full_derives is the
// measure of derive work saved. scripts/bench.sh redirects this into
// BENCH_assign.json.
func assignJSON(ctx context.Context, loops []*ddg.Graph) error {
	type row struct {
		Machine     string `json:"machine"`
		Loops       int    `json:"loops"`
		Assigned    int    `json:"assigned"`
		TotalNS     int64  `json:"total_ns"`
		NSPerOp     int64  `json:"ns_per_op"`
		AllocsPerOp int64  `json:"allocs_per_op"`
		BytesPerOp  int64  `json:"bytes_per_op"`
		Commits     int    `json:"assign_commits"`
		Evictions   int    `json:"evictions"`
		Deltas      int    `json:"assign_deltas"`
		FullDerives int    `json:"assign_full_derives"`
	}
	machines := assignMachines()
	summary := struct {
		Name string `json:"name"`
		Rows []row  `json:"rows"`
	}{Name: "assign_suite"}
	for _, m := range machines {
		iis := make([]int, len(loops))
		for i, g := range loops {
			iis[i] = mii.MII(g, m)
		}
		tr := obs.New(ctx, nil, true)
		assigned := 0
		m0, b0 := memCounters()
		start := time.Now()
		for i, g := range loops {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if _, ok := assign.Run(g, m, iis[i], assign.Options{
				Variant: assign.HeuristicIterative, Trace: tr,
			}); ok {
				assigned++
			}
		}
		elapsed := time.Since(start)
		m1, b1 := memCounters()
		r := row{
			Machine:     m.Name,
			Loops:       len(loops),
			Assigned:    assigned,
			TotalNS:     elapsed.Nanoseconds(),
			Commits:     tr.Stats.AssignCommits,
			Evictions:   tr.Stats.Evictions,
			Deltas:      tr.Stats.AssignDeltas,
			FullDerives: tr.Stats.AssignFullDerives,
		}
		if assigned > 0 {
			r.NSPerOp = elapsed.Nanoseconds() / int64(assigned)
			r.AllocsPerOp = int64(m1-m0) / int64(assigned)
			r.BytesPerOp = int64(b1-b0) / int64(assigned)
		}
		summary.Rows = append(summary.Rows, r)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(summary)
}

// Profile teardown must also run on the fatal() paths, hence the
// explicit hook instead of relying on main's defer alone.
var (
	profileOnce sync.Once
	profileStop = func() {}
)

func startProfiles(cpu, mem string) error {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	profileStop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	return nil
}

func stopProfiles() { profileOnce.Do(profileStop) }

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
