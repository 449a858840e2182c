package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runSmall runs one workload at the tiny input size and returns the
// parsed result line.
func runSmall(t *testing.T, name string, traced bool, slow map[string]time.Duration) result {
	t.Helper()
	cfg := config{
		seed: 7, window: 300 * time.Millisecond, traced: traced, small: true, slow: slow,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
	rep, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out, errs bytes.Buffer
	if code := printResult(&out, &errs, name, cfg, hostInfo{}, rep); code != 0 {
		t.Fatalf("%s: exit %d: %s", name, code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmokeEveryMetricPrinted runs every workload of the command at a
// tiny size, untraced and traced, and checks that the result carries
// exactly the end-to-end or per-layer metrics of BENCHMARK.json, each
// with its unit.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the command does not know", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := runSmall(t, name, traced, nil)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
				}
			}
		}
	}
}

// TestSlowedLayerLandsInItsMetric slows one layer, in the program call
// that owns it (see programDelay) and in each replayed call, and checks
// that the delay shows up in that layer's self time, not in another
// layer's, and that the unattributed time stays where it was. Each
// slowed layer runs once per op. Where the program call's own time is
// a metric (program), it must rise by the delay too.
func TestSlowedLayerLandsInItsMetric(t *testing.T) {
	const delay = 2 * time.Millisecond
	cases := []struct{ workload, layer, unattributed, program string }{
		{"paper_suite_4c", "mii", "pipeline.unattributed_ns", "pipeline.schedule_ns"},
		{"service_mix", "ddgio.parse", "server.unattributed_ns", ""},
		{"compile_tu", "regalloc", "compile.unattributed_ns", ""},
	}
	for _, c := range cases {
		base := runSmall(t, c.workload, true, nil)
		slow := runSmall(t, c.workload, true, map[string]time.Duration{c.layer: delay})
		want := float64(delay.Nanoseconds())
		name := layerMetric(c.layer)
		for _, m := range []string{name, c.program} {
			if got := slow.Metrics[m].Value - base.Metrics[m].Value; m != "" && (got < 0.9*want || got > 1.25*want) {
				t.Errorf("%s: %s rose by %.0f ns per op, want about %.0f", c.workload, m, got, want)
			}
		}
		if got := slow.Metrics[c.unattributed].Value - base.Metrics[c.unattributed].Value; math.Abs(got) > 0.25*want {
			t.Errorf("%s: %s moved by %.0f ns per op; the delay was not attributed to %s", c.workload, c.unattributed, got, name)
		}
		for _, other := range allLayerNames {
			m := layerMetric(other)
			if other == c.layer || m == c.program {
				continue
			}
			if got := slow.Metrics[m].Value - base.Metrics[m].Value; got > 0.25*want {
				t.Errorf("%s: %s rose by %.0f ns per op while only %s was slowed", c.workload, m, got, name)
			}
		}
	}
}

// TestAttributionAddsUp checks, on hand-made spans, that per op the
// self times of the program spans and layers plus the unattributed
// time equal the op's traced (root program) time.
func TestAttributionAddsUp(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ns int) time.Time { return epoch.Add(time.Duration(ns)) }
	tr := newTracer(epoch, nil)
	// Op 0: a client request [0,1000) around the handler [100,900);
	// the replay's layers: decode 150, lookup 300 holding schedule 200.
	tr.op = 0
	hop := tr.program("http.hop", -1, at(0), at(1000))
	tr.program("server.handler", hop, at(100), at(900))
	tr.spans = append(tr.spans,
		span{Name: "server.decode", Kind: kindLayer, Op: 0, Parent: -1, Start: 1000, End: 1150},
		span{Name: "cache.lookup", Kind: kindLayer, Op: 0, Parent: -1, Start: 1150, End: 1450},
		span{Name: "pipeline.schedule", Kind: kindLayer, Op: 0, Parent: 3, Start: 1200, End: 1400},
		span{Name: "sim", Kind: kindCheck, Op: 0, Parent: -1, Start: 1450, End: 1500},
	)
	// Op 1: a replay slower than the program: negative unattributed.
	tr.op = 1
	tr.program("server.handler", -1, at(2000), at(2100))
	tr.spans = append(tr.spans, span{Name: "server.decode", Kind: kindLayer, Op: 1, Parent: -1, Start: 2100, End: 2250})

	ops := tr.attribution("server.handler")
	want := map[int64]struct{ program, unattributed int64 }{0: {1000, 800 - 450}, 1: {100, -50}}
	for id, w := range want {
		o := ops[id]
		if o.programNS != w.program || o.unattributed != w.unattributed {
			t.Errorf("op %d: program %d unattributed %d, want %d and %d", id, o.programNS, o.unattributed, w.program, w.unattributed)
		}
		sum := o.unattributed
		for name, v := range o.self {
			if name != "sim" {
				sum += v
			}
		}
		if sum != o.programNS {
			t.Errorf("op %d: self times plus unattributed = %d, traced time %d", id, sum, o.programNS)
		}
	}
	if got := ops[0].self["cache.lookup"]; got != 100 {
		t.Errorf("cache.lookup self time %d, want 100 (its child excluded)", got)
	}
	if got := ops[0].self["http.hop"]; got != 200 {
		t.Errorf("http.hop self time %d, want 200", got)
	}

	path := t.TempDir() + "/spans.jsonl"
	if err := writeSpans(path, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var first span
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || len(lines) != len(tr.spans) || first != tr.spans[0] {
		t.Errorf("written spans: %d lines (want %d), first %+v (err %v)", len(lines), len(tr.spans), first, err)
	}
}

// TestBadUsage checks that the command refuses unknown workloads
// without printing a result.
func TestBadUsage(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errs); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
