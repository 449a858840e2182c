// Command perfbench is the repository's one benchmark. It runs a named
// workload in a single process, measures it for a fixed time, checks
// that every output is correct, and prints one JSON object as its last
// line of output:
//
//	perfbench --workload paper_suite_4c --seed 7 --seconds 45 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// which replays every op through the layers' public functions with a
// span around each call and writes the spans to
// .bench_build/spans-<workload>.jsonl when it ends (see trace.go and
// README.md).
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// result is still printed, with "correct": false), 2 on bad usage or
// when a workload could not run at all (no result is printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*report, error){
	"paper_suite_4c": runPaperSuite,
	"service_mix":    runServiceMix,
	"compile_tu":     runCompileTU,
}

// config is one run's settings.
type config struct {
	seed   int64
	window time.Duration
	traced bool
	// small shrinks every input to a few loops; the tests use it.
	small bool
	// slow injects a delay into every traced call of the named layers
	// (the tests use it to check attribution).
	slow map[string]time.Duration
	// traceOut receives every span of a traced run as JSON lines once
	// the run ends.
	traceOut string
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome.
type report struct {
	attempted int64
	failed    int64
	// problems lists every failed check; empty means correct.
	problems []string
	metrics  map[string]metric
	// context is printed beside the result but is not a metric.
	context map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, context: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check; the first few are kept verbatim.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 7, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceOut: filepath.Join(".bench_build", "spans-"+*name+".jsonl"),
	}
	if cfg.traced {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	host := calibrate()
	rep, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	return printResult(stdout, stderr, *name, cfg, host, rep)
}

// printResult prints the run context, any failed checks, and the result line.
func printResult(stdout, stderr io.Writer, name string, cfg config, host hostInfo, rep *report) int {
	ctx := map[string]any{
		"workload": name,
		"seed":     cfg.seed,
		"traced":   cfg.traced,
		"host":     host,
	}
	for k, v := range rep.context {
		ctx[k] = v
	}
	line, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Fprintln(stdout, string(line))
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	res := result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostInfo is the calibration recorded with every run: how fast one
// goroutine runs a fixed spin kernel, and how many such goroutines the
// host actually runs at once. It is context, not a metric: a slow host
// reads as a slow host instead of as a regression.
type hostInfo struct {
	CPUs             int     `json:"cpus"`
	CalibrationNS    int64   `json:"calibration_ns"`
	ParallelCapacity float64 `json:"parallel_capacity"`
}

// spinIters is the fixed work of one calibration kernel.
const spinIters = 1 << 23

// spinSink keeps the spin kernel's result alive.
var spinSink uint64

// spin runs the calibration kernel: a xorshift chain no compiler can
// fold away.
func spin() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibrate times the spin kernel on one goroutine (best of three) and
// then on GOMAXPROCS goroutines at once; the capacity is how many
// kernels' worth of work the host completed per single-kernel time.
func calibrate() hostInfo {
	n := runtime.GOMAXPROCS(0)
	single := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t := time.Now()
		spinSink += spin()
		if d := time.Since(t); d < single {
			single = d
		}
	}
	done := make(chan uint64, n)
	t := time.Now()
	for i := 0; i < n; i++ {
		go func() { done <- spin() }()
	}
	for i := 0; i < n; i++ {
		spinSink += <-done
	}
	par := time.Since(t)
	return hostInfo{
		CPUs:             n,
		CalibrationNS:    single.Nanoseconds(),
		ParallelCapacity: float64(n) * float64(single) / float64(par),
	}
}
