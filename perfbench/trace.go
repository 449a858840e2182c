package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// Span kinds. A program span times a real call into the program, as
// the untraced run makes it. A layer span times one call into a layer's
// public function during the replay of that op. A check span times
// work the benchmark adds to verify outputs; it belongs to no op's
// traced time.
const (
	kindProgram = "program"
	kindLayer   = "layer"
	kindCheck   = "check"
)

// span is one timed call. Parent indexes the enclosing span in the
// same tracer (-1 for a root); Op ties the spans of one op together.
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps one goroutine's spans in memory. Spans nest: a span
// begun while another is open becomes its child.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32
	op    int64
	// slow delays every layer call of the named layers, inside the
	// span, by busy-waiting (the attribution tests use it; see
	// programDelay for the program's side).
	slow map[string]time.Duration
}

func newTracer(epoch time.Time, slow map[string]time.Duration) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<14), open: -1, slow: slow}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span of the given kind under the innermost open one.
func (t *tracer) begin(kind, name string) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Kind: kind, Op: t.op, Parent: t.open, Start: t.now()})
	t.open = i
	if kind == kindLayer {
		busyWait(t.slow[name])
	}
	return i
}

// busyWait spins for d.
func busyWait(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// programDelay is the delay that slowing the given layers adds to a
// program call that calls each of them once. The program's own calls
// into a layer cannot be reached from outside, so a traced run that
// slows a layer also busy-waits this long inside the program call that
// owns it: the program then slows down exactly as if the layer had,
// and the attribution tests can check that the replay puts the delay
// on that layer and not in the unattributed time.
func programDelay(slow map[string]time.Duration, layers ...string) time.Duration {
	var d time.Duration
	for _, l := range layers {
		d += slow[l]
	}
	return d
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	t.spans[i].End = t.now()
	t.open = t.spans[i].Parent
}

// layer runs f inside a layer span.
func (t *tracer) layer(name string, f func()) {
	i := t.begin(kindLayer, name)
	f()
	t.end(i)
}

// check runs f inside a check span.
func (t *tracer) check(name string, f func()) {
	i := t.begin(kindCheck, name)
	f()
	t.end(i)
}

// program records an already-timed program call [start, end) as a
// span, under parent (-1 for a root).
func (t *tracer) program(name string, parent int32, start, end time.Time) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Kind: kindProgram, Op: t.op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return i
}

// selfTimes returns every span's self time: its duration minus the
// durations of its direct children.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// opTotals is one op's attribution: the traced time of the program
// calls that make up the op, the self time of each layer and check,
// and the program time no layer claims (signed: a replay slower than
// the program makes it negative).
type opTotals struct {
	programNS    int64
	self         map[string]int64
	unattributed int64
}

// attribution folds a tracer's spans into per-op totals. inner names
// the program span the layers replay: its duration minus the layers'
// self times is the unattributed time. Every other program span's
// self time is reported under its own name, so the program spans'
// self times, the layers' self times and the unattributed time add up
// to the root program spans' duration.
func (t *tracer) attribution(inner string) map[int64]*opTotals {
	self := t.selfTimes()
	ops := map[int64]*opTotals{}
	get := func(op int64) *opTotals {
		o := ops[op]
		if o == nil {
			o = &opTotals{self: map[string]int64{}}
			ops[op] = o
		}
		return o
	}
	for i := range t.spans {
		s := &t.spans[i]
		o := get(s.Op)
		switch {
		case s.Kind == kindProgram && s.Name == inner:
			o.unattributed += s.dur()
			if s.Parent < 0 {
				o.programNS += s.dur()
			}
		case s.Kind == kindProgram:
			o.self[s.Name] += self[i]
			if s.Parent < 0 {
				o.programNS += s.dur()
			}
		case s.Kind == kindLayer:
			o.self[s.Name] += self[i]
			o.unattributed -= self[i]
		default:
			o.self[s.Name] += self[i]
		}
	}
	return ops
}

// layerMetric is the metric name of a layer's self time: "mii" becomes
// "mii.ns" and "server.decode" becomes "server.decode_ns".
func layerMetric(name string) string {
	if strings.Contains(name, ".") {
		return name + "_ns"
	}
	return name + ".ns"
}

// reportLayers sets the per-op self time of every layer (0 for a layer
// that never ran) and the unattributed time under unattributedName,
// averaged over ops.
func reportLayers(rep *report, totals []map[int64]*opTotals, unattributedName string, ops int) {
	sum := map[string]int64{}
	var unattributed int64
	for _, tm := range totals {
		for _, o := range tm {
			for n, v := range o.self {
				sum[n] += v
			}
			unattributed += o.unattributed
		}
	}
	n := float64(max(ops, 1))
	for _, name := range allLayerNames {
		rep.set(layerMetric(name), float64(sum[name])/n, "ns")
	}
	rep.set(unattributedName, float64(unattributed)/n, "ns")
}

// writeSpans writes every tracer's spans to path as JSON lines.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(struct {
				Tracer int `json:"tracer"`
				span
			}{ti, t.spans[i]}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allLayerNames lists, in a stable order, every layer a workload may
// report, so that each traced run prints every per-layer metric.
var allLayerNames = []string{
	"lint", "mii", "order", "assign", "sched", "verify.audit", "pipeline.schedule",
	"server.decode", "server.resolve", "ddgio.parse", "cache.key", "cache.lookup",
	"server.encode", "http.hop", "emit",
	"frontend", "stagesched", "verify.schedule", "regalloc", "sim",
}

// unattributedNames are the three program boundaries with a replay.
var unattributedNames = []string{"pipeline.unattributed_ns", "server.unattributed_ns", "compile.unattributed_ns"}

// finishTrace fills every per-layer counter and unattributed time the
// workload did not set with 0, since that layer did no work in it.
func finishTrace(rep *report) {
	for _, n := range unattributedNames {
		if _, ok := rep.metrics[n]; !ok {
			rep.set(n, 0, "ns")
		}
	}
	for _, c := range counterNames {
		if _, ok := rep.metrics[c.name]; !ok {
			rep.set(c.name, 0, c.unit)
		}
	}
}

// counterNames are the non-time per-layer metrics.
var counterNames = []struct{ name, unit string }{
	{"assign.attempts", "count"}, {"assign.success_ratio", "ratio"}, {"assign.evictions", "count"},
	{"assign.pcr_rejections", "count"}, {"assign.warm_hit_ratio", "ratio"},
	{"sched.attempts", "count"}, {"sched.success_ratio", "ratio"}, {"sched.displacements", "count"},
	{"pipeline.escalated_frac", "ratio"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"},
	{"stagesched.moved", "count"},
	{"runtime.allocs_per_op", "count"}, {"runtime.bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ns", "ns"},
	{"trace.overhead_pct", "%"},
}

// overhead sets trace.overhead_pct: how much longer a traced op takes
// than an untraced one, the replay included.
func overhead(rep *report, untracedNS, tracedNS float64) {
	if untracedNS <= 0 {
		return
	}
	rep.set("trace.overhead_pct", 100*(tracedNS-untracedNS)/untracedNS, "%")
}
