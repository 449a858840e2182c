// Unit tests for the daemon client against stub HTTP servers: error
// mapping onto APIError, X-Cache header handling, context timeout
// propagation, and the /fleetz heartbeat decode. The real
// daemon's end-to-end behavior is covered in internal/server's tests;
// these pin the client's own contract.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clustersched/internal/diag"
	"clustersched/internal/server"
)

// stubSchedule returns a handler serving a fixed ScheduleResponse
// with the given X-Cache header.
func stubSchedule(t *testing.T, xcache string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/schedule" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		var req server.ScheduleRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("stub could not decode request: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		if xcache != "" {
			w.Header().Set("X-Cache", xcache)
		}
		json.NewEncoder(w).Encode(server.ScheduleResponse{Name: "stub", Machine: req.Machine, II: 2, MII: 2})
	}
}

func TestXCacheHeaderMapping(t *testing.T) {
	for _, tc := range []struct {
		xcache string
		cached bool
	}{
		{"miss", false},
		{"hit", true},
		{"coalesced", true},
		{"", false},
	} {
		ts := httptest.NewServer(stubSchedule(t, tc.xcache))
		c := New(ts.URL, ts.Client())
		resp, cached, err := c.Schedule(context.Background(), server.ScheduleRequest{Machine: "gp:2:2:1"})
		if err != nil {
			t.Fatalf("X-Cache %q: %v", tc.xcache, err)
		}
		if cached != tc.cached {
			t.Errorf("X-Cache %q: cached = %v, want %v", tc.xcache, cached, tc.cached)
		}
		if resp.Name != "stub" || resp.II != 2 {
			t.Errorf("X-Cache %q: decoded %+v", tc.xcache, resp)
		}
		_, xcache, err := c.ScheduleRaw(context.Background(), server.ScheduleRequest{Machine: "gp:2:2:1"})
		if err != nil || xcache != tc.xcache {
			t.Errorf("ScheduleRaw xcache = %q (%v), want %q", xcache, err, tc.xcache)
		}
		ts.Close()
	}
}

func TestErrorMapping(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(server.ErrorResponse{
			Error:       "loop is unschedulable",
			Diagnostics: []diag.Diagnostic{{Code: "LINT001", Severity: diag.Error, Message: "bad loop"}},
		})
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	_, _, err := c.Schedule(context.Background(), server.ScheduleRequest{Machine: "gp:2:2:1"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", apiErr.Status)
	}
	if apiErr.ErrorResponse.Error != "loop is unschedulable" {
		t.Errorf("message = %q", apiErr.ErrorResponse.Error)
	}
	if len(apiErr.Diagnostics) != 1 || apiErr.Diagnostics[0].Code != "LINT001" {
		t.Errorf("diagnostics not carried through: %+v", apiErr.Diagnostics)
	}
}

// TestErrorMappingNonJSONBody: a non-JSON error body (a proxy's HTML
// 502, say) still yields an APIError carrying the status.
func TestErrorMappingNonJSONBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want APIError with status 502", err)
	}
}

func TestTimeoutPropagation(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	c := New(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Schedule(ctx, server.ScheduleRequest{Machine: "gp:2:2:1"})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, deadline did not propagate", elapsed)
	}
}

func TestFleetzDecodes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleetz" {
			t.Errorf("path = %s", r.URL.Path)
		}
		json.NewEncoder(w).Encode(server.FleetzResponse{ID: "w1", Accepting: true, Inflight: 2, MaxInflight: 8})
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	fz, err := c.Fleetz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fz.ID != "w1" || fz.Inflight != 2 || !fz.Accepting {
		t.Errorf("fleetz = %+v", fz)
	}
}
