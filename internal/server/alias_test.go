// Tests for the exact-repeat path of /v1/schedule: a body seen before
// is served from the cache by the SHA-256 of its raw bytes, without a
// decode, a parse or a cache key. Driven in-process through
// Server.ServeHTTP.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersched/internal/obs"
	"clustersched/internal/server"
)

// reply is one served request.
type reply struct {
	status int
	xcache string
	body   []byte
}

// serve sends one /v1/schedule request with the given raw body.
func serve(h http.Handler, body []byte) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	return reply{rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes()}
}

// scheduleBody encodes a schedule request the way a client does.
func scheduleBody(tb testing.TB, req server.ScheduleRequest) []byte {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// mustServe serves body and fails unless the reply is a 200 with the
// wanted X-Cache source.
func mustServe(tb testing.TB, h http.Handler, body []byte, xcache string) []byte {
	tb.Helper()
	r := serve(h, body)
	if r.status != http.StatusOK || r.xcache != xcache {
		tb.Fatalf("status %d, X-Cache %q; want 200 %q (%s)", r.status, r.xcache, xcache, r.body)
	}
	return r.body
}

// timingsRE matches the "*_ns" fields, which differ between two runs
// of the same schedule.
var timingsRE = regexp.MustCompile(`"(\w+_ns)":\d+`)

func withoutTimings(body []byte) []byte {
	return timingsRE.ReplaceAll(body, []byte(`"${1}":0`))
}

// checkLookups asserts that every served schedule request counted
// exactly one hit, miss or coalesced lookup.
func checkLookups(t *testing.T, srv *server.Server, served int) {
	t.Helper()
	st := srv.CacheStats()
	if got := st.Hits + st.Misses + st.Coalesced; got != uint64(served) {
		t.Errorf("hits %d + misses %d + coalesced %d = %d, want %d served requests",
			st.Hits, st.Misses, st.Coalesced, got, served)
	}
}

// TestScheduleHitAllocs pins the cost of an exact repeat: a hash and
// a store lookup, not a decode, parse and key.
func TestScheduleHitAllocs(t *testing.T) {
	srv := server.New(server.Config{})
	body := scheduleBody(t, server.ScheduleRequest{DDG: bigLoopDDG(t), Machine: "gp:2:2:1", Name: "big"})
	first := mustServe(t, srv, body, "miss")
	var again reply
	allocs := testing.AllocsPerRun(50, func() { again = serve(srv, body) })
	if again.status != http.StatusOK || again.xcache != "hit" || !bytes.Equal(again.body, first) {
		t.Fatalf("repeat: status %d, X-Cache %q, byte-identical %v; want a 200 hit equal to the first reply",
			again.status, again.xcache, bytes.Equal(again.body, first))
	}
	// Test harness included (request, recorder, header maps).
	t.Logf("%.0f allocations per hit", allocs)
	if allocs >= 50 {
		t.Errorf("a hit makes %.0f allocations, want < 50", allocs)
	}
}

// TestAliasOfEvictedEntryRecomputes evicts the canonical entry behind
// an alias and checks that the repeat runs the pipeline again.
func TestAliasOfEvictedEntryRecomputes(t *testing.T) {
	body := scheduleBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
	// Size the budget from the reply: each of the 16 shards fits one
	// reply and an alias or two, never two replies.
	probe := mustServe(t, server.New(server.Config{}), body, "miss")
	srv := server.New(server.Config{CacheBytes: 16 * int64(len(probe)+600)})

	first := mustServe(t, srv, body, "miss")
	mustServe(t, srv, body, "hit")
	const fills = 100
	for i := 0; i < fills; i++ {
		mustServe(t, srv, scheduleBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1", Name: fmt.Sprintf("fill-%d", i)}), "miss")
	}
	if st := srv.CacheStats(); st.Evictions == 0 {
		t.Fatalf("no evictions after %d fills: %+v", fills, st)
	}
	recomputed := mustServe(t, srv, body, "miss")
	if !bytes.Equal(withoutTimings(recomputed), withoutTimings(first)) {
		t.Errorf("recomputed reply differs from the first beyond *_ns timings:\nfirst: %s\nagain: %s", first, recomputed)
	}
	if again := mustServe(t, srv, body, "hit"); !bytes.Equal(again, recomputed) {
		t.Error("hit after the recompute is not byte-identical to it")
	}
	checkLookups(t, srv, fills+4)
}

// twoLoopsDDG holds two loops, which /v1/schedule rejects.
const twoLoopsDDG = dotDDG + "loop chain\nnode 0 load x[i]\nnode 1 store y[i]\nedge 0 1 0\nend\n"

// selfLoopDDG parses, but lint rejects its zero-distance self edge
// (DDG005).
const selfLoopDDG = "loop z\nnode 0 alu\nedge 0 0 0\nend\n"

// TestBadBodiesNeverAliased repeats rejected requests: each gets the
// same status and error body every time, reaches no cache lookup, and
// leaves no alias behind.
func TestBadBodiesNeverAliased(t *testing.T) {
	srv := server.New(server.Config{})
	cases := []struct {
		name   string
		body   []byte
		status int
		code   string // a diagnostic code the error body must carry
	}{
		{"unknown machine", scheduleBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "warp:9"}), http.StatusBadRequest, ""},
		{"two loops", scheduleBody(t, server.ScheduleRequest{DDG: twoLoopsDDG, Machine: "gp:2:2:1"}), http.StatusUnprocessableEntity, ""},
		{"unknown field", []byte(`{"machine":"gp:2:2:1","ddg":"x","machnie":"oops"}`), http.StatusBadRequest, ""},
		{"lint-rejected graph", scheduleBody(t, server.ScheduleRequest{DDG: selfLoopDDG, Machine: "gp:2:2:1"}), http.StatusUnprocessableEntity, "DDG005"},
	}
	for _, tc := range cases {
		first := serve(srv, tc.body)
		if first.status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, first.status, tc.status, first.body)
			continue
		}
		var resp server.ErrorResponse
		if err := json.Unmarshal(first.body, &resp); err != nil || resp.Error == "" {
			t.Errorf("%s: error body %s is not an ErrorResponse (%v)", tc.name, first.body, err)
		}
		if tc.code != "" && (len(resp.Diagnostics) == 0 || resp.Diagnostics[0].Code != tc.code) {
			t.Errorf("%s: diagnostics %v, want %s", tc.name, resp.Diagnostics, tc.code)
		}
		for i := 0; i < 3; i++ {
			if again := serve(srv, tc.body); again.status != first.status || !bytes.Equal(again.body, first.body) {
				t.Errorf("%s: repeat %d answered %d %s, want %d %s", tc.name, i, again.status, again.body, first.status, first.body)
			}
		}
	}
	if st := srv.CacheStats(); st.Aliases != 0 || st.Entries != 0 {
		t.Errorf("rejected requests left %d aliases and %d entries", st.Aliases, st.Entries)
	}
	checkLookups(t, srv, 0)
}

// TestSpellingsShareOneEntry sends one loop in two spellings: the
// second spelling resolves to the first's canonical key, so its first
// request is already a hit, and each spelling gets an alias.
func TestSpellingsShareOneEntry(t *testing.T) {
	srv := server.New(server.Config{})
	compact := scheduleBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
	spaced, err := json.MarshalIndent(struct {
		Machine string `json:"machine"`
		DDG     string `json:"ddg"`
	}{"gp:2:2:1", strings.ReplaceAll(dotDDG, " ", "   ")}, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	first := mustServe(t, srv, compact, "miss")
	if got := mustServe(t, srv, spaced, "hit"); !bytes.Equal(got, first) {
		t.Error("second spelling's reply differs from the first's")
	}
	mustServe(t, srv, spaced, "hit")
	mustServe(t, srv, compact, "hit")
	if st := srv.CacheStats(); st.Entries != 1 || st.Aliases != 2 || st.Misses != 1 || st.Hits != 3 {
		t.Errorf("cache %+v, want 1 entry, 2 aliases, 1 miss, 3 hits", st)
	}
}

// TestConcurrentIdenticalRequestsCoalesce holds the first run inside
// the pipeline while identical requests arrive: they find no alias
// (none is recorded before a success) and coalesce onto the run.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	observer := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindPhaseBegin && e.Phase == obs.PhaseMII {
			once.Do(func() { <-gate })
		}
	})
	srv := server.New(server.Config{Observer: observer})
	body := scheduleBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})

	const n = 6
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = serve(srv, body)
		}(i)
	}
	deadline := time.After(10 * time.Second)
	for srv.CacheStats().Coalesced < n-1 {
		select {
		case <-deadline:
			close(gate)
			wg.Wait()
			t.Fatalf("requests never coalesced: %+v", srv.CacheStats())
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	wg.Wait()

	sources := map[string]int{}
	for i, r := range replies {
		if r.status != http.StatusOK || !bytes.Equal(r.body, replies[0].body) {
			t.Errorf("reply %d: status %d, identical %v", i, r.status, bytes.Equal(r.body, replies[0].body))
		}
		sources[r.xcache]++
	}
	if sources["miss"] != 1 || sources["coalesced"] != n-1 {
		t.Errorf("X-Cache sources %v, want 1 miss and %d coalesced", sources, n-1)
	}
	if again := mustServe(t, srv, body, "hit"); !bytes.Equal(again, replies[0].body) {
		t.Error("hit after the coalesced run differs from it")
	}
	checkLookups(t, srv, n+1)
}

// TestLookupsMatchServedRequests replays a mixed stream — first
// requests, exact repeats, a respelling, and rejected bodies — and
// checks the counters: one lookup per served request, one miss per
// distinct loop.
func TestLookupsMatchServedRequests(t *testing.T) {
	srv := server.New(server.Config{})
	bodies := make([][]byte, 5)
	for i := range bodies {
		bodies[i] = scheduleBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1", Name: fmt.Sprintf("loop-%d", i)})
	}
	respelled := append([]byte(" \n"), bodies[2]...)
	bad := []byte(`{"machine":"gp:2:2:1"}`)
	served, rejected := 0, 0
	for i := 0; i < 40; i++ {
		body := bodies[3*i%len(bodies)]
		switch i % 7 {
		case 3:
			body = respelled
		case 5:
			body = bad
		}
		r := serve(srv, body)
		switch {
		case r.status == http.StatusOK:
			served++
		case r.status >= 400 && r.status < 500:
			rejected++
		default:
			t.Fatalf("request %d: status %d (%s)", i, r.status, r.body)
		}
	}
	if rejected == 0 {
		t.Fatal("stream rejected nothing; the bad body was not exercised")
	}
	checkLookups(t, srv, served)
	st := srv.CacheStats()
	if st.Misses != uint64(len(bodies)) || st.Entries != len(bodies) {
		t.Errorf("misses %d, entries %d; want %d of each", st.Misses, st.Entries, len(bodies))
	}
}

// TestEmptyLoopListsAreEmpty: a loop with no operations schedules, and
// its reply spells both per-node lists as empty arrays, never null.
func TestEmptyLoopListsAreEmpty(t *testing.T) {
	body := mustServe(t, server.New(server.Config{}), scheduleBody(t, server.ScheduleRequest{DDG: "loop x\nend\n", Machine: "gp:2:2:1"}), "miss")
	for _, want := range []string{`"cluster_of":[]`, `"cycle_of":[]`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("reply lacks %s: %s", want, body)
		}
	}
}
