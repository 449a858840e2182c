package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersched"
	"clustersched/internal/cache"
	"clustersched/internal/cli"
	"clustersched/internal/ddgio"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/server"
)

// service_mix: a closed loop of two clients over loopback HTTP to an
// in-process clusterd handler (server.New) that starts with an empty
// cache. Each client sends its next /v1/schedule request when the last
// one has been answered, as build tools do. The seeded request stream
// is 80% Zipf-skewed repeats of earlier requests (cache hits) and 20%
// first-seen loops (misses, which run the pipeline and fill the
// cache), at seeded positions. One op is one request.
//
// The stream has a fixed length. A window longer than one pass over
// it runs several rounds, each against a new server with an empty
// cache; the clock stops between rounds. So the mix, the cache's size
// and the benchmark's memory do not depend on how fast the server is.
const (
	serviceMachine = "gp:2:2:1"
	serviceClients = 2
	// serviceMissFrac is the share of first-seen loops in the stream.
	serviceMissFrac = 0.2
	// serviceZipfS and serviceZipfV skew the repeats towards the
	// earliest loops: repeat rank k is drawn with weight (v+k)^-s, so
	// the most requested loop gets about 0.5% of the repeats. The hit
	// path's cost grows with the size of the loops it serves; with
	// v = 8, where the first loop got 3%, the mean size of a hit's
	// loop spread by 17% over ten seeds (interquartile range over
	// median), and the hit path's cost with it; with v = 64, by 6%.
	serviceZipfS = 1.1
	serviceZipfV = 64
	// serviceRequests is the length of one round's stream.
	serviceRequests = 20000
)

// serviceStream is the seeded request stream: the distinct loops in
// first-seen order with their request bodies, and per request the
// index of the loop it asks for.
type serviceStream struct {
	loops  []*clustersched.Graph
	names  []string
	bodies [][]byte
	order  []int32
}

func newServiceStream(seed int64, requests int) (*serviceStream, error) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, serviceZipfS, serviceZipfV, uint64(requests))
	st := &serviceStream{order: make([]int32, requests)}
	// Exactly serviceMissFrac of the requests are first-seen, the first
	// one included, so the number of distinct loops, and with it the
	// quality sums, does not move with the seed.
	miss := make([]bool, requests)
	miss[0] = true
	for _, i := range rng.Perm(requests - 1)[:int(serviceMissFrac*float64(requests))-1] {
		miss[i+1] = true
	}
	var text strings.Builder
	for i := range st.order {
		n := len(st.loops)
		if !miss[i] {
			st.order[i] = int32(zipf.Uint64() % uint64(n))
			continue
		}
		g := loopgen.Loop(rng)
		name := fmt.Sprintf("svc%06d", n)
		text.Reset()
		if err := ddgio.Write(&text, name, g); err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.ScheduleRequest{Name: name, DDG: text.String(), Machine: serviceMachine})
		if err != nil {
			return nil, err
		}
		st.loops = append(st.loops, g)
		st.names = append(st.names, name)
		st.bodies = append(st.bodies, body)
		st.order[i] = int32(n)
	}
	return st, nil
}

// service is one running in-process server with its client.
type service struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	// handler holds, per request index, the handler's start and end
	// (traced servers only).
	handler []atomic.Int64
	epoch   time.Time
	// delay is busy-waited in each traced request's handler (see
	// programDelay).
	delay time.Duration
}

// startService builds the server, its listener and the client, and
// opens one connection per client. A traced server records each
// request's handler interval.
func startService(traced bool, epoch time.Time) (*service, error) {
	s := &service{srv: server.New(server.Config{}), served: make(chan error, 1), epoch: epoch}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = s.srv
	if traced {
		s.handler = make([]atomic.Int64, 2*serviceRequests)
		h = http.HandlerFunc(s.timed)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serviceClients,
		DisableCompression:  true,
	}}
	var wg sync.WaitGroup
	errs := make([]error, serviceClients)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := s.client.Get(s.url + "/healthz")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// timed is the traced handler: it serves the request and records the
// handler interval under the request index the client sent.
func (s *service) timed(w http.ResponseWriter, r *http.Request) {
	t0 := time.Since(s.epoch).Nanoseconds()
	s.srv.ServeHTTP(w, r)
	busyWait(s.delay)
	t1 := time.Since(s.epoch).Nanoseconds()
	if op, err := strconv.Atoi(r.Header.Get("X-Bench-Op")); err == nil && op >= 0 && 2*op+1 < len(s.handler) {
		s.handler[2*op].Store(t0)
		s.handler[2*op+1].Store(t1)
	}
}

// stop shuts the server down and waits for its serve loop to end.
func (s *service) stop() {
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// post sends one schedule request and returns the reply body and its
// cache source.
func (s *service) post(op int, body []byte) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.handler != nil {
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get("X-Cache"), nil
}

// serviceRun is the state of one run: the stream, the current round's
// server, and the reply checks.
type serviceRun struct {
	st    *serviceStream
	epoch time.Time
	svc   *service
	round int
	next  atomic.Int64
	// traceMu runs traced ops one at a time, so that no span is
	// stretched by the other client's work on the same core.
	traceMu sync.Mutex

	mu sync.Mutex
	// first holds, per distinct loop, the first reply of the first
	// round; roundFirst the first reply of the current round; fills
	// the hashes of every reply of the round that filled the cache
	// (more than one when an entry was evicted and filled again).
	first, roundFirst [][]byte
	fills             [][]uint64
	// pending are hits whose fill had not been recorded yet when they
	// arrived (the other client's miss reply was still in flight).
	pending []pendingHit
	seed    maphash.Seed

	// cache sums the cache counters of the rounds' servers before
	// the current one.
	cache cache.Stats
	// setup, when set, times one more set-up between rounds.
	setup *setupClock
	// delay is the handler delay of traced servers (see programDelay).
	delay time.Duration

	attempted, failed, hits atomic.Int64
	problems                chan string
}

// cacheStats returns the cache counters of every round so far.
func (sr *serviceRun) cacheStats() cache.Stats {
	c := sr.svc.srv.CacheStats()
	c.Hits += sr.cache.Hits
	c.Misses += sr.cache.Misses
	c.Coalesced += sr.cache.Coalesced
	c.Evictions += sr.cache.Evictions
	return c
}

type pendingHit struct {
	loop int32
	req  int
	hash uint64
}

func newServiceRun(st *serviceStream, svc *service) *serviceRun {
	n := len(st.loops)
	return &serviceRun{
		st: st, svc: svc, epoch: svc.epoch, seed: maphash.MakeSeed(), problems: make(chan string, 20),
		first: make([][]byte, n), roundFirst: make([][]byte, n), fills: make([][]uint64, n),
	}
}

// check verifies one reply as far as it can be checked at once: a
// repeated fill of a loop must equal the round's first fill in
// everything but the phase timings, and a hit or coalesced reply must
// be byte-identical to a reply that filled the cache for the loop.
func (sr *serviceRun) check(i int, k int32, src string, body []byte) {
	h := maphash.Bytes(sr.seed, body)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if src == "miss" {
		if first := sr.roundFirst[k]; first == nil {
			sr.roundFirst[k] = body
		} else if same, err := sameModuloTimes(first, body); err != nil || !same {
			sr.problem("request %d (loop %d): refill differs from the first fill (err %v)", i, k, err)
		}
		sr.fills[k] = append(sr.fills[k], h)
		return
	}
	sr.hits.Add(1)
	if !slices.Contains(sr.fills[k], h) {
		sr.pending = append(sr.pending, pendingHit{loop: k, req: i, hash: h})
	}
}

// endRound checks what had to wait for the round to end: hits that
// arrived before their fill was recorded, and each loop's first reply
// of this round against its first reply of the first round. It then
// clears the round's state.
func (sr *serviceRun) endRound() {
	for _, p := range sr.pending {
		if !slices.Contains(sr.fills[p.loop], p.hash) {
			sr.problem("request %d (loop %d): hit differs from every reply that filled the cache", p.req, p.loop)
		}
	}
	sr.pending = nil
	for k, body := range sr.roundFirst {
		switch {
		case body == nil:
		case sr.first[k] == nil:
			sr.first[k] = body
		default:
			if same, err := sameModuloTimes(sr.first[k], body); err != nil || !same {
				sr.problem("loop %d: reply in round %d differs from the first round (err %v)", k, sr.round, err)
			}
		}
		sr.roundFirst[k] = nil
		sr.fills[k] = sr.fills[k][:0]
	}
}

// newRound replaces the server by a new one with an empty cache.
func (sr *serviceRun) newRound(traced bool) error {
	sr.endRound()
	sr.cache = sr.cacheStats()
	sr.svc.stop()
	svc, err := startService(traced, sr.epoch)
	if err != nil {
		return err
	}
	svc.delay = sr.delay
	sr.svc = svc
	sr.round++
	sr.next.Store(0)
	return nil
}

// op sends the next request of the stream and checks its reply. It
// reports false when the round's stream is used up.
func (sr *serviceRun) op(w *window, tr *tracer, rp *serviceReplica) bool {
	i := int(sr.next.Add(1) - 1)
	if i >= len(sr.st.order) {
		return false
	}
	k := sr.st.order[i]
	t0 := time.Now()
	body, src, err := sr.svc.post(i, sr.st.bodies[k])
	t1 := time.Now()
	if w != nil {
		w.record(t1.Sub(t0).Nanoseconds())
	}
	sr.attempted.Add(1)
	if err != nil {
		sr.problem("request %d (loop %d): %v", i, k, err)
		return true
	}
	sr.check(i, k, src, body)
	if tr == nil {
		return true
	}
	tr.op = int64(sr.round*serviceRequests + i)
	hop := tr.program("http.hop", -1, t0, t1)
	h0, h1 := sr.svc.handler[2*i].Load(), sr.svc.handler[2*i+1].Load()
	tr.program("server.handler", hop, sr.epoch.Add(time.Duration(h0)), sr.epoch.Add(time.Duration(h1)))
	if err := rp.replay(tr, sr.st.bodies[k], body); err != nil {
		sr.problem("request %d (loop %d): replay: %v", i, k, err)
	}
	return true
}

func (sr *serviceRun) problem(format string, args ...any) {
	sr.failed.Add(1)
	select {
	case sr.problems <- fmt.Sprintf(format, args...):
	default:
	}
}

// clients runs both clients until d has passed since start or the
// round's stream is used up, and waits for them. It reports whether
// the stream was used up; the latencies go to w.
func (sr *serviceRun) clients(start time.Time, d time.Duration, w *window, tracers []*tracer, rp *serviceReplica) bool {
	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	lats := make([]*window, serviceClients)
	for c := 0; c < serviceClients; c++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		if w != nil {
			lats[c] = &window{heap: newHeapSampler(), lat: make([]int64, 0, serviceRequests)}
		}
		wg.Add(1)
		go func(lat *window) {
			defer wg.Done()
			for !deadline(start, d) {
				if tr != nil {
					sr.traceMu.Lock()
				}
				more := sr.op(lat, tr, rp)
				if tr != nil {
					sr.traceMu.Unlock()
				}
				if !more {
					done.Store(true)
					return
				}
			}
		}(lats[c])
	}
	wg.Wait()
	if w != nil {
		for _, l := range lats {
			w.lat = append(w.lat, l.lat...)
			w.ops += len(l.lat)
			w.heap.peak = max(w.heap.peak, l.heap.peak)
		}
	}
	return done.Load()
}

// measure runs rounds until d of client time has passed. The clock
// (and the CPU clock, when w is set) stops between rounds, and each
// complete round is one of w's passes. It returns the ops run and the
// time they took.
func (sr *serviceRun) measure(d time.Duration, w *window, tracers []*tracer, rp *serviceReplica) (int, time.Duration, error) {
	var (
		ops     int
		elapsed time.Duration
	)
	for {
		before := sr.attempted.Load()
		t := time.Now()
		if w != nil {
			w.resume()
			w.beginPass()
		}
		usedUp := sr.clients(t, d-elapsed, w, tracers, rp)
		if w != nil {
			if usedUp {
				w.endPass()
			}
			w.pause()
		}
		elapsed += time.Since(t)
		ops += int(sr.attempted.Load() - before)
		if !usedUp || elapsed >= d {
			return ops, elapsed, nil
		}
		if w != nil && sr.setup != nil {
			if err := sr.setup.again(); err != nil {
				return ops, elapsed, err
			}
		}
		if err := sr.newRound(tracers != nil); err != nil {
			return ops, elapsed, err
		}
		if rp != nil {
			rp.reset()
		}
	}
}

func runServiceMix(cfg config) (*report, error) {
	requests := serviceRequests
	if cfg.small {
		requests = 60
	}
	st, err := newServiceStream(cfg.seed, requests)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.context["machine"] = serviceMachine
	rep.context["clients"] = serviceClients
	rep.context["round_requests"] = requests

	epoch := time.Now()
	var first *service
	setup, err := newSetupClock(func() (func(), error) {
		svc, err := startService(false, epoch)
		switch {
		case err != nil:
			return nil, err
		case first != nil:
			return svc.stop, nil
		}
		first = svc
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	sr := newServiceRun(st, first)
	defer func() { sr.svc.stop() }()

	if cfg.traced {
		err = traceService(cfg, rep, sr)
	} else {
		sr.setup = setup
		w := startWindow()
		w.pause()
		if _, _, err = sr.measure(cfg.window, w, nil, nil); err == nil {
			w.stop()
			var secs []float64
			secs, err = setup.finish()
			w.report(rep, secs)
		}
	}
	if err != nil {
		return nil, err
	}
	sr.endRound()
	rep.attempted = sr.attempted.Load()
	rep.failed = sr.failed.Load()
	close(sr.problems)
	for p := range sr.problems {
		rep.fail("%s", p)
	}
	rep.context["hit_frac"] = float64(sr.hits.Load()) / float64(max(rep.attempted, 1))
	rep.context["rounds"] = sr.round + 1
	if cfg.traced {
		return rep, nil
	}
	return rep, serviceQuality(rep, sr)
}

// serviceQuality checks each distinct loop's first reply against
// server.ResponseFor run through the facade (timing fields aside), and
// sets the generated-code metrics over the stream's distinct loops.
func serviceQuality(rep *report, sr *serviceRun) error {
	ctx := context.Background()
	m, err := cli.ParseMachine(serviceMachine)
	if err != nil {
		return err
	}
	results := make([]*clustersched.Result, len(sr.st.loops))
	sess := clustersched.NewSession(m)
	for k, g := range sr.st.loops {
		res, err := sess.Schedule(ctx, g)
		if err != nil {
			return err
		}
		results[k] = res
		if sr.first[k] == nil {
			continue
		}
		ref, err := json.Marshal(server.ResponseFor(sr.st.names[k], serviceMachine, res))
		if err != nil {
			return err
		}
		if same, err := sameModuloTimes(ref, sr.first[k]); err != nil || !same {
			rep.failed++
			rep.fail("loop %d: served reply differs from server.ResponseFor (err %v)", k, err)
		}
	}
	q := newQuality(m)
	for k, res := range results {
		if err := q.add(ctx, sr.st.loops[k], res.II, res.MII, res.Registers().TotalRegisters(), len(res.Pipelined())); err != nil {
			return err
		}
	}
	q.report(rep)
	return nil
}

// sameModuloTimes compares two encoded schedule responses with the
// wall-clock phase timings of their stats zeroed: those are the only
// fields two runs of one request may differ in.
func sameModuloTimes(a, b []byte) (bool, error) {
	var ra, rb server.ScheduleResponse
	if err := json.Unmarshal(a, &ra); err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return false, err
	}
	for _, r := range []*server.ScheduleResponse{&ra, &rb} {
		r.Stats.MIITime, r.Stats.AssignTime, r.Stats.SchedTime = 0, 0, 0
	}
	ea, _ := json.Marshal(ra)
	eb, _ := json.Marshal(rb)
	return bytes.Equal(ea, eb), nil
}

// traceService is the traced run of service_mix: half the window
// untraced, for the runtime counters and the tracing overhead, then
// half traced on traced servers, continuing the same stream.
func traceService(cfg config, rep *report, sr *serviceRun) error {
	half := cfg.window / 2
	r0 := readRuntime()
	plain, took, err := sr.measure(half, nil, nil, nil)
	if err != nil {
		return err
	}
	untracedNS := float64(took.Nanoseconds()) / float64(max(plain, 1))
	reportRuntime(rep, r0, readRuntime(), plain)

	// The traced half starts on a traced server with an empty cache.
	// Every request calls each of these layers once.
	sr.delay = programDelay(cfg.slow, "server.decode", "server.resolve", "ddgio.parse", "cache.key", "cache.lookup")
	if err := sr.newRound(true); err != nil {
		return err
	}
	tracers := make([]*tracer, serviceClients)
	for c := range tracers {
		tracers[c] = newTracer(sr.epoch, cfg.slow)
	}
	rp := newServiceReplica()
	c0 := sr.cacheStats()
	ops, took, err := sr.measure(half, nil, tracers, rp)
	if err != nil {
		return err
	}
	tracedNS := float64(took.Nanoseconds()) / float64(max(ops, 1))
	c1 := sr.cacheStats()

	totals := make([]map[int64]*opTotals, len(tracers))
	for i, tr := range tracers {
		totals[i] = tr.attribution("server.handler")
	}
	reportLayers(rep, totals, "server.unattributed_ns", ops)
	lookups := (c1.Hits + c1.Misses + c1.Coalesced) - (c0.Hits + c0.Misses + c0.Coalesced)
	rep.set("cache.hit_ratio", float64((c1.Hits+c1.Coalesced)-(c0.Hits+c0.Coalesced))/float64(max(lookups, 1)), "ratio")
	rep.set("cache.evictions", float64(c1.Evictions-c0.Evictions), "count")
	overhead(rep, untracedNS, tracedNS)
	rep.context["traced_ops"] = ops
	finishTrace(rep)
	return writeSpans(cfg.traceOut, tracers...)
}

// serviceReplica replays the /v1/schedule handler through the layers'
// public functions, in the order the handler calls them: JSON decode,
// machine and option resolution, ddgio.Read, cache.Key, and the cache
// lookup; on a miss, inside the lookup, the facade schedule, the audit
// (verify.Audit via Result.Audit), the kernel text (emit) and the JSON
// encode of the response server.ResponseFor builds. It keeps its own
// cache, shared by both clients.
type serviceReplica struct {
	cache *cache.Cache
	// keyed marks the loops whose replayed key was checked against
	// server.KeyForRequest.
	keyed sync.Map
}

func newServiceReplica() *serviceReplica { return &serviceReplica{cache: cache.New(0)} }

// reset empties the replay's cache, as a new round's server starts
// with an empty one.
func (rp *serviceReplica) reset() { rp.cache = cache.New(0) }

// replay replays one request and checks it against the reply served.
func (rp *serviceReplica) replay(tr *tracer, body, served []byte) error {
	var (
		req   server.ScheduleRequest
		m     *machine.Config
		loops []ddgio.NamedGraph
		key   string
		err   error
	)
	tr.layer("server.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return err
	}
	tr.layer("server.resolve", func() {
		if m, err = cli.ParseMachine(req.Machine); err != nil {
			return
		}
		if _, err = cli.ParseVariant("heuristic-iterative"); err != nil {
			return
		}
		_, err = cli.ParseScheduler("ims")
	})
	if err != nil {
		return err
	}
	tr.layer("ddgio.parse", func() { loops, err = ddgio.Read(strings.NewReader(req.DDG)) })
	if err != nil {
		return err
	}
	if len(loops) != 1 {
		return fmt.Errorf("want one loop, got %d", len(loops))
	}
	g := loops[0].Graph
	tr.layer("cache.key", func() {
		key = cache.Key(g, m, req.Name, "heuristic-iterative", "ims", "budget=0", "slack=0")
	})
	if _, seen := rp.keyed.LoadOrStore(req.Name, true); !seen {
		want, err := server.KeyForRequest(req)
		if err != nil || want != key {
			return fmt.Errorf("replayed cache key differs from server.KeyForRequest (err %v)", err)
		}
	}
	var (
		out    []byte
		src    cache.Source
		missed bool
	)
	tr.layer("cache.lookup", func() {
		out, src, err = rp.cache.GetOrCompute(context.Background(), key, func(ctx context.Context) ([]byte, error) {
			missed = true
			return rp.compute(ctx, tr, req.Name, g, m)
		})
	})
	if err != nil {
		return fmt.Errorf("cache %s: %w", src, err)
	}
	if !missed {
		return nil
	}
	same, err := sameModuloTimes(out, served)
	if err != nil || !same {
		return fmt.Errorf("replayed reply differs from the served one (err %v)", err)
	}
	return nil
}

// compute is the miss path of the replay.
func (rp *serviceReplica) compute(ctx context.Context, tr *tracer, name string, g *clustersched.Graph, m *machine.Config) ([]byte, error) {
	var (
		res   *clustersched.Result
		diags []clustersched.Diagnostic
		text  string
		out   []byte
		err   error
	)
	tr.layer("pipeline.schedule", func() { res, err = clustersched.ScheduleContext(ctx, g, m) })
	if err != nil {
		return nil, err
	}
	tr.layer("verify.audit", func() { diags = res.Audit() })
	if diags == nil {
		diags = []clustersched.Diagnostic{}
	}
	tr.layer("emit", func() { text = res.Kernel() })
	resp := server.ScheduleResponse{
		Name: name, Machine: serviceMachine, II: res.II, MII: res.MII, Copies: res.Copies,
		Stages: res.Stages(), ClusterOf: res.ClusterOf, CycleOf: res.CycleOf,
		Kernel: text, Stats: res.Stats(), Diagnostics: diags,
	}
	tr.layer("server.encode", func() { out, err = json.Marshal(resp) })
	return out, err
}
