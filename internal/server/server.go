// Package server implements clusterd's HTTP JSON API: a long-running
// scheduling service in front of the clustersched facade, with a
// content-addressed result cache (package cache), bounded concurrency
// with 429 backpressure, and cancellation threaded from the client
// connection all the way into the II-escalation loop.
//
// Routes (see docs/SERVICE.md for the full reference):
//
//	POST /v1/schedule   schedule one loop (ddg text or loop source)
//	POST /v1/batch      schedule every loop of a multi-loop payload
//	POST /v1/compile    fully compile a translation unit to kernels
//	POST /v1/lint       static analysis without scheduling
//	GET  /healthz       liveness probe
//	GET  /statsz        cache, request, and search-effort counters
//
// Identical schedule requests are served from the cache byte-for-byte:
// the cache stores the encoded response body, and the X-Cache response
// header says whether a request was a miss (this request ran the
// pipeline), a hit (served from the store), or coalesced (shared the
// result of a concurrent identical request). A /v1/schedule body seen
// before is a hit without being decoded: the SHA-256 of its raw bytes
// is an alias of the canonical key its first request resolved to.
package server

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersched"
	"clustersched/internal/assign"
	"clustersched/internal/cache"
	"clustersched/internal/cli"
	"clustersched/internal/compile"
	"clustersched/internal/ddgio"
	"clustersched/internal/diag"
	"clustersched/internal/frontend"
	"clustersched/internal/lint"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/pool"
)

// maxBodyBytes bounds every request body.
const maxBodyBytes = 16 << 20

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// recorded when the client disconnected before its schedule finished.
// The client never sees it — the connection is gone — but it keeps the
// handler's accounting honest.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value is usable: default cache
// budget, no per-request timeout, GOMAXPROCS-derived concurrency.
type Config struct {
	// CacheBytes is the result cache budget (cache.DefaultMaxBytes
	// when <= 0).
	CacheBytes int64
	// Timeout bounds each schedule's wall-clock time via the facade's
	// WithTimeout; zero means the client connection is the only bound.
	Timeout time.Duration
	// MaxInflight caps concurrently admitted requests; excess requests
	// are rejected with 429 (4 x GOMAXPROCS when <= 0).
	MaxInflight int
	// Workers is the batch fan-out width (GOMAXPROCS when <= 0).
	Workers int
	// Observer, when set, receives the trace events of every pipeline
	// run the server executes. It is shared across concurrent runs and
	// must be safe for concurrent use.
	Observer obs.Observer
	// NodeID identifies this worker inside a clusterlb fleet; it is
	// reported on /fleetz. Empty is fine for a standalone daemon.
	NodeID string
}

// Server is the daemon's http.Handler. Create one with New.
type Server struct {
	cfg   Config
	cache *cache.Cache
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	requests  atomic.Int64
	scheduled atomic.Int64
	rejected  atomic.Int64

	mu    sync.Mutex
	sched obs.Stats
}

// New builds a Server ready to serve.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:   cfg,
		cache: cache.New(cfg.CacheBytes),
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxInflight),
		start: time.Now(),
	}
	s.mux.HandleFunc(apiPrefix+"/schedule", s.handleSchedule)
	s.mux.HandleFunc(apiPrefix+"/batch", s.handleBatch)
	s.mux.HandleFunc(apiPrefix+"/compile", s.handleCompile)
	s.mux.HandleFunc(apiPrefix+"/lint", s.handleLint)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/fleetz", s.handleFleetz)
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CacheStats exposes the result cache counters (also on /statsz).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// admit is the preamble of every scheduling route: POST only, counted
// in requests, then admitted into the bounded in-flight set or refused
// with 429 and Retry-After. When ok is false the reply is written;
// otherwise the caller calls release when done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return nil, false
	}
	s.requests.Add(1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errors.New("server at max in-flight requests"))
		return nil, false
	}
}

func (s *Server) addSchedStats(st obs.Stats) {
	s.mu.Lock()
	s.sched.Add(st)
	s.mu.Unlock()
}

// schedSnapshot returns the aggregated search-effort counters.
func (s *Server) schedSnapshot() obs.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError renders err as a JSON error body, surfacing structured
// lint findings when the error carries a *diag.List.
func writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error()}
	var list *diag.List
	if errors.As(err, &list) {
		resp.Diagnostics = list.Diags
	}
	writeJSON(w, status, resp)
}

// scheduleErrorStatus maps a failed schedule to its HTTP status:
// cancellation from the client connection, deadline from the
// per-request timeout, anything else is an unprocessable input (lint
// findings, II search exhausted).
func scheduleErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// readBody reads the whole request body, up to maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // room to read EOF without regrowing
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeJSON decodes the first JSON value of body into v, rejecting
// unknown fields.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return decodeJSON(body, v)
}

// scheduleJob is one resolved loop: the loop, the machine, the facade
// options, and the cache identity.
type scheduleJob struct {
	name        string
	machineSpec string
	graph       *clustersched.Graph
	machine     *clustersched.Machine
	options     []clustersched.Option
	key         string
}

// resolveOptions is the one resolver of the scheduling fields every
// request shares: the machine spec, the option names with their
// defaults, and the option part of the cache identity. It is pure (no
// server configuration enters it), so KeyForRequest, which the
// balancer's ring routing runs, and the handlers' cache lookup can
// never disagree on a key.
func resolveOptions(machineSpec, variant, scheduler string, budget, slack int) (*clustersched.Machine, []clustersched.Option, []string, error) {
	if machineSpec == "" {
		return nil, nil, nil, errors.New("machine spec is required")
	}
	m, err := cli.ParseMachine(machineSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	variant = cmp.Or(variant, "heuristic-iterative")
	v, err := cli.ParseVariant(variant)
	if err != nil {
		return nil, nil, nil, err
	}
	scheduler = cmp.Or(scheduler, "ims")
	sch, err := cli.ParseScheduler(scheduler)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := []clustersched.Option{clustersched.WithVariant(v), clustersched.WithScheduler(clustersched.Scheduler(sch))}
	if budget > 0 {
		opts = append(opts, clustersched.WithBudget(budget))
	}
	if slack > 0 {
		opts = append(opts, clustersched.WithMaxIISlack(slack))
	}
	// The cache identity covers everything that changes the response
	// body.
	return m, opts, []string{
		strings.ToLower(variant),
		strings.ToLower(scheduler),
		fmt.Sprintf("budget=%d", budget),
		fmt.Sprintf("slack=%d", slack),
	}, nil
}

// resolveCommon is resolveOptions plus the server's own run options:
// the per-request timeout and the shared observer, which change
// neither a response body nor its cache identity.
func (s *Server) resolveCommon(machineSpec, variant, scheduler string, budget, slack int) (*clustersched.Machine, []clustersched.Option, []string, error) {
	m, opts, optID, err := resolveOptions(machineSpec, variant, scheduler, budget, slack)
	if err != nil {
		return nil, nil, nil, err
	}
	if s.cfg.Timeout > 0 {
		opts = append(opts, clustersched.WithTimeout(s.cfg.Timeout))
	}
	if s.cfg.Observer != nil {
		opts = append(opts, clustersched.WithObserver(s.cfg.Observer))
	}
	return m, opts, optID, nil
}

// loopRequest is a scheduling request resolved on the handler path.
type loopRequest struct {
	machine *clustersched.Machine
	options []clustersched.Option
	optID   []string
	loops   []ddgio.NamedGraph
}

// resolveRequest resolves a request's shared fields (resolveCommon)
// and then its loops. On failure it writes the error reply, 400 for a
// field and 422 for the loop payload, and returns false.
func (s *Server) resolveRequest(w http.ResponseWriter, machineSpec, variant, scheduler string, budget, slack int, ddgText, source string) (*loopRequest, bool) {
	m, opts, optID, err := s.resolveCommon(machineSpec, variant, scheduler, budget, slack)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	loops, err := parseLoops(ddgText, source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return nil, false
	}
	return &loopRequest{machine: m, options: opts, optID: optID, loops: loops}, true
}

// nameFor resolves the response (and cache-identity) name of a loop:
// the request override, then the loop's own name, then "loop".
func nameFor(reqName, loopName string) string {
	if reqName != "" {
		return reqName
	}
	if loopName != "" {
		return loopName
	}
	return "loop"
}

// parseLoops loads the request's loops from exactly one of the ddg
// text or loop-language payloads.
func parseLoops(ddgText, source string) ([]ddgio.NamedGraph, error) {
	switch {
	case ddgText != "" && source != "":
		return nil, errors.New("give either ddg or source, not both")
	case ddgText != "":
		loops, err := ddgio.Read(strings.NewReader(ddgText))
		if err != nil {
			return nil, err
		}
		if len(loops) == 0 {
			return nil, errors.New("ddg payload contains no loops")
		}
		return loops, nil
	case source != "":
		compiled, err := frontend.Compile(source)
		if err != nil {
			return nil, err
		}
		loops := make([]ddgio.NamedGraph, len(compiled))
		for i, l := range compiled {
			loops[i] = ddgio.NamedGraph{Name: l.Name, Graph: l.Graph}
		}
		return loops, nil
	default:
		return nil, errors.New("give a loop as ddg text or loop source")
	}
}

// buildJob resolves one loop into a runnable, cacheable job whose
// cache identity is its name followed by id.
func (s *Server) buildJob(name, machineSpec string, loop ddgio.NamedGraph, m *clustersched.Machine, opts []clustersched.Option, id []string) scheduleJob {
	name = nameFor(name, loop.Name)
	return scheduleJob{
		name:        name,
		machineSpec: machineSpec,
		graph:       loop.Graph,
		machine:     m,
		options:     opts,
		key:         cache.Key(loop.Graph, m, append([]string{name}, id...)...),
	}
}

// ResponseFor flattens a finished schedule into the API response
// shape. It is also what schedview -json prints, so offline and
// service output stay field-compatible.
func ResponseFor(name, machineSpec string, res *clustersched.Result) ScheduleResponse {
	diags := res.Audit()
	if diags == nil {
		diags = []diag.Diagnostic{}
	}
	return ScheduleResponse{
		Name:        name,
		Machine:     machineSpec,
		II:          res.II,
		MII:         res.MII,
		Copies:      res.Copies,
		Stages:      res.Stages(),
		ClusterOf:   res.ClusterOf,
		CycleOf:     res.CycleOf,
		Kernel:      res.Kernel(),
		Stats:       res.Stats(),
		Diagnostics: diags,
	}
}

// scheduleBody is a schedule job's cache miss: it runs the full
// pipeline on sess under ctx (so a dead client connection aborts the
// II search), audits the schedule, and encodes the response.
func (s *Server) scheduleBody(ctx context.Context, sess *clustersched.Session, job scheduleJob) ([]byte, error) {
	res, err := sess.Schedule(ctx, job.graph)
	if err != nil {
		return nil, err
	}
	s.scheduled.Add(1)
	s.addSchedStats(res.Stats())
	return json.Marshal(ResponseFor(job.name, job.machineSpec, res))
}

// fanOut serves every loop of a multi-loop request through the result
// cache over the daemon's worker pool: loop i is a job with cache
// identity id, and compute produces its body on a miss. Items come
// back in input order with the counts of cache-served and failed
// items; err is set when ctx ended the request early.
func (s *Server) fanOut(ctx context.Context, machineSpec string, rq *loopRequest, id []string, compute func(context.Context, scheduleJob) ([]byte, error)) (items []BatchItem, hits, failed int, err error) {
	items = make([]BatchItem, len(rq.loops))
	var nHits, nFailed atomic.Int64
	err = pool.ForEach(ctx, len(rq.loops), s.cfg.Workers, func(i int) {
		job := s.buildJob("", machineSpec, rq.loops[i], rq.machine, rq.options, id)
		items[i].Name = job.name
		body, src, err := s.cache.GetOrCompute(ctx, job.key, func(ctx context.Context) ([]byte, error) {
			return compute(ctx, job)
		})
		if err != nil {
			items[i].Error = err.Error()
			nFailed.Add(1)
			return
		}
		items[i].Result = json.RawMessage(body)
		if src != cache.Miss {
			items[i].Cached = true
			nHits.Add(1)
		}
	})
	return items, int(nHits.Load()), int(nFailed.Load()), err
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	raw, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The canonical key is a pure function of the body bytes, so a body
	// that resolved to a key before may skip straight to that key's
	// stored reply.
	sum := sha256.Sum256(raw)
	alias := string(sum[:])
	if body, ok := s.cache.GetAlias(alias); ok {
		writeSchedule(w, cache.Hit, body)
		return
	}

	var req ScheduleRequest
	if err := decodeJSON(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rq, ok := s.resolveRequest(w, req.Machine, req.Variant, req.Scheduler, req.BudgetPerNode, req.MaxIISlack, req.DDG, req.Source)
	if !ok {
		return
	}
	if len(rq.loops) != 1 {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("schedule takes exactly one loop, got %d (use /v1/batch)", len(rq.loops)))
		return
	}
	job := s.buildJob(req.Name, req.Machine, rq.loops[0], rq.machine, rq.options, rq.optID)
	// The session is built on a miss only: hits and coalesced requests
	// never pay for it.
	body, src, err := s.cache.GetOrCompute(r.Context(), job.key, func(ctx context.Context) ([]byte, error) {
		return s.scheduleBody(ctx, clustersched.NewSession(job.machine, job.options...), job)
	})
	if err != nil {
		writeError(w, scheduleErrorStatus(err), err)
		return
	}
	// Only a request that succeeded is aliased, so a bad body is
	// re-checked, and rejected the same way, every time.
	s.cache.Alias(alias, job.key)
	writeSchedule(w, src, body)
}

// writeSchedule writes an encoded ScheduleResponse with its X-Cache
// source.
func writeSchedule(w http.ResponseWriter, src cache.Source, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src.String())
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleBatch schedules every loop of the request through one facade
// Session shared by the fan-out's workers, built at the first miss.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rq, ok := s.resolveRequest(w, req.Machine, req.Variant, req.Scheduler, req.BudgetPerNode, req.MaxIISlack, req.DDG, req.Source)
	if !ok {
		return
	}
	sess := sync.OnceValue(func() *clustersched.Session { return clustersched.NewSession(rq.machine, rq.options...) })
	items, hits, _, err := s.fanOut(r.Context(), req.Machine, rq, rq.optID, func(ctx context.Context, job scheduleJob) ([]byte, error) {
		return s.scheduleBody(ctx, sess(), job)
	})
	if err != nil {
		writeError(w, scheduleErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: items, CacheHits: hits})
}

// handleCompile is the whole-translation-unit endpoint: every loop is
// fully compiled — schedule, optional stage scheduling, register
// allocation, emission, optional sim cross-validation — through one
// compile.Executor, built at the first miss, whose Session is shared
// across the request's loops. The result cache works at per-loop
// granularity: a loop compiled under the same machine, options, and
// compile flags is served byte-identical from the store no matter
// which translation unit asked first.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	var req CompileRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rq, ok := s.resolveRequest(w, req.Machine, req.Variant, req.Scheduler, req.BudgetPerNode, req.MaxIISlack, req.DDG, req.Source)
	if !ok {
		return
	}

	ex := sync.OnceValue(func() *compile.Executor {
		// The facade options are pipeline.Options mutators; apply them
		// over the facade's own defaults so the compile path schedules
		// exactly like /v1/schedule under the same request fields.
		popts := pipeline.Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			CollectStats: true,
		}
		for _, o := range rq.options {
			o(&popts)
		}
		return compile.NewExecutor(rq.machine, compile.Options{
			Pipeline:   popts,
			Workers:    s.cfg.Workers,
			StageSched: req.StageSched,
			Pipelined:  req.Pipelined,
			Validate:   req.Validate,
		})
	})
	// The compile flags change the body, so they join the cache
	// identity alongside the scheduling options.
	compileID := append([]string{"compile",
		fmt.Sprintf("stagesched=%v", req.StageSched),
		fmt.Sprintf("pipelined=%v", req.Pipelined),
		fmt.Sprintf("validate=%v", req.Validate)}, rq.optID...)

	items, hits, failed, err := s.fanOut(r.Context(), req.Machine, rq, compileID, func(ctx context.Context, job scheduleJob) ([]byte, error) {
		lr := ex().One(ctx, frontend.Loop{Name: job.name, Graph: job.graph})
		if lr.Err != nil {
			return nil, lr.Err
		}
		s.scheduled.Add(1)
		s.addSchedStats(lr.Outcome.Stats)
		return json.Marshal(CompileResult{
			Name:           job.name,
			Machine:        job.machineSpec,
			II:             lr.Outcome.II,
			MII:            lr.Outcome.MII,
			Copies:         lr.Outcome.Assignment.Copies,
			Stages:         lr.Outcome.Schedule.StageCount(),
			Moved:          lr.Moved,
			Factor:         lr.Alloc.Factor,
			RegsPerCluster: lr.Alloc.RegsPerCluster,
			Kernel:         lr.Text,
			Stats:          lr.Outcome.Stats,
		})
	})
	if err != nil {
		writeError(w, scheduleErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, CompileResponse{
		Items:     items,
		Scheduled: len(items) - failed,
		Failed:    failed,
		CacheHits: hits,
	})
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	s.requests.Add(1)
	var req LintRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.DDG == "" && req.Source == "" && req.Machine == "" {
		writeError(w, http.StatusBadRequest, errors.New("nothing to lint: give ddg, source, or machine"))
		return
	}
	diags := []diag.Diagnostic{}
	if req.Source != "" {
		diags = append(diags, lint.Program("<source>", req.Source)...)
	}
	if req.DDG != "" {
		loops, err := ddgio.ReadLax(strings.NewReader(req.DDG))
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		for _, l := range loops {
			diags = append(diags, lint.Loop("<ddg>", l.Name, l.Graph)...)
		}
	}
	if req.Machine != "" {
		for _, spec := range strings.Split(req.Machine, ",") {
			m, err := cli.ParseMachine(strings.TrimSpace(spec))
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			diags = append(diags, lint.Machine(m)...)
		}
	}
	writeJSON(w, http.StatusOK, LintResponse{Diagnostics: diags, Errors: diag.CountErrors(diags)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Scheduled:     s.scheduled.Load(),
		Rejected:      s.rejected.Load(),
		Inflight:      len(s.sem),
		Cache:         s.cache.StatsDetail(),
		Sched:         s.schedSnapshot(),
	})
}
