// Service-boundary fuzzing of /v1/schedule: for any request body the
// handler answers either an audited schedule or a coded 4xx error,
// never a panic or a 5xx, and answers a repeat of the body the same
// way. Driven in-process through Server.ServeHTTP.
package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"clustersched/internal/server"
)

func FuzzScheduleBody(f *testing.F) {
	// The docs/SERVICE.md dot request, as its curl line sends it.
	f.Add([]byte(`{
  "machine": "gp:2:2:1",
  "source": "loop dot { s = s + a[i]*b[i] }"
}`))
	f.Add(scheduleBody(f, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"}))
	f.Add([]byte(`{"machine":"gp:2:2:1","source":"loop dot { s = s + a[i]`))
	f.Add([]byte(`{"machine":"gp:2:2:1","ddg":"x","machnie":"oops"}`))
	f.Add(scheduleBody(f, server.ScheduleRequest{DDG: dotDDG, Machine: "warp:9"}))
	f.Add(scheduleBody(f, server.ScheduleRequest{DDG: twoLoopsDDG, Machine: "gp:2:2:1"}))
	f.Add(scheduleBody(f, server.ScheduleRequest{DDG: selfLoopDDG, Machine: "gp:2:2:1"}))
	// Machine counts past the reservation table's 64-bit lanes, and a
	// negative width, once panicked inside the pipeline.
	f.Add(scheduleBody(f, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:65:1"}))
	f.Add(scheduleBody(f, server.ScheduleRequest{DDG: dotDDG, Machine: "unified:-1"}))
	// An empty loop once answered "cycle_of":null beside "cluster_of":[].
	f.Add(scheduleBody(f, server.ScheduleRequest{DDG: "loop x\nend\n", Machine: "gp:2:2:1"}))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv := server.New(server.Config{})
		first := serve(srv, body)
		checkScheduleReply(t, body, first)
		// A success is aliased by its raw bytes, so the repeat is a
		// byte-identical hit; a rejection is re-checked and rejected
		// the same way.
		again := serve(srv, body)
		if again.status != first.status || !bytes.Equal(again.body, first.body) {
			t.Fatalf("repeat of %q answered %d %s, first %d %s", body, again.status, again.body, first.status, first.body)
		}
		if first.status == http.StatusOK && again.xcache != "hit" {
			t.Fatalf("repeat of %q: X-Cache %q, want hit", body, again.xcache)
		}
	})
}

// checkScheduleReply asserts the service-boundary contract for one
// reply: a 200 carries a ScheduleResponse whose audit is clean; any
// other status is 400, 413 or 422 with an ErrorResponse naming the
// error.
func checkScheduleReply(t *testing.T, body []byte, r reply) {
	t.Helper()
	switch r.status {
	case http.StatusOK:
		var resp server.ScheduleResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			t.Fatalf("body %q: 200 reply is not a ScheduleResponse (%v): %s", body, err, r.body)
		}
		if len(resp.Diagnostics) != 0 {
			t.Fatalf("body %q: schedule failed its audit: %v", body, resp.Diagnostics)
		}
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		var resp server.ErrorResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || resp.Error == "" {
			t.Fatalf("body %q: %d reply is not an ErrorResponse (%v): %s", body, r.status, err, r.body)
		}
	default:
		t.Fatalf("body %q: status %d, want 200, 400, 413 or 422: %s", body, r.status, r.body)
	}
}
