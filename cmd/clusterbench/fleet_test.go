package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"clustersched/internal/balance"
	"clustersched/internal/loopgen"
	"clustersched/internal/server"
)

func TestQuantileNS(t *testing.T) {
	sample := func(ns ...int64) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n)
		}
		return out
	}
	five := sample(50, 10, 40, 20, 30)
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(100 - i) // 100..1, unsorted
	}
	cases := []struct {
		name string
		lat  []time.Duration
		q    float64
		want int64
	}{
		{"empty", nil, 0.5, 0},
		{"single", sample(7), 0.99, 7},
		{"five p0", five, 0, 10},
		{"five p50", five, 0.50, 30},
		{"five p90", five, 0.90, 50},
		{"five p99 is the max", five, 0.99, 50},
		{"hundred p50", hundred, 0.50, 50},
		{"hundred p99", hundred, 0.99, 99},
		{"hundred p100", hundred, 1, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := quantileNS(tc.lat, tc.q); got != tc.want {
				t.Errorf("quantileNS(q=%v) = %d, want %d", tc.q, got, tc.want)
			}
		})
	}
}

// TestFleetReplay runs the -fleet replay in process through a real
// balancer over two real workers, then drives its cached-p50 gate
// against committed files written to a scratch working directory.
func TestFleetReplay(t *testing.T) {
	var workers []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Config{}))
		t.Cleanup(ts.Close)
		workers = append(workers, ts.URL)
	}
	b, err := balance.New(balance.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	lb := httptest.NewServer(b)
	t.Cleanup(lb.Close)

	t.Chdir(t.TempDir())
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: 6})
	var out bytes.Buffer
	if err := fleetReplay(context.Background(), &out, lb.URL, loops, "ims", 2, 0.10, false); err != nil {
		t.Fatalf("replay without a committed file: %v", err)
	}
	var got fleetSummary
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("summary: %v\n%s", err, out.Bytes())
	}
	if got.Loops != len(loops) || got.Workers != len(workers) {
		t.Errorf("loops/workers = %d/%d, want %d/%d", got.Loops, got.Workers, len(loops), len(workers))
	}
	if got.ColdHits != 0 {
		t.Errorf("cold pass made %d cache hits, want 0", got.ColdHits)
	}
	if got.CachedHits != len(loops) || got.ColdFailed != 0 || got.CachedFailed != 0 {
		t.Errorf("cached_hits=%d cold_failed=%d cached_failed=%d, want %d hits and no failures",
			got.CachedHits, got.ColdFailed, got.CachedFailed, len(loops))
	}
	if got.ColdP50NS > got.ColdP99NS || got.CachedP50NS > got.CachedP99NS {
		t.Errorf("p50 above p99: cold %d/%d, cached %d/%d", got.ColdP50NS, got.ColdP99NS, got.CachedP50NS, got.CachedP99NS)
	}
	if got.CachedP50NS <= 0 {
		t.Errorf("cached p50 = %d, want a measured latency", got.CachedP50NS)
	}
	if got.RingRouted <= 0 {
		t.Errorf("ring_routed = %d, want > 0", got.RingRouted)
	}

	if err := fleetGate(got, 0.10, true); err == nil {
		t.Error("gate with requireBase passed without a committed BENCH_fleet.json")
	}
	commit := func(p50 int64) {
		t.Helper()
		data, err := json.Marshal(fleetSummary{CachedP50NS: p50})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_fleet.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	commit(1)
	if err := fleetGate(got, 0.10, true); err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("gate against a 1 ns committed p50 = %v, want a regression error", err)
	}
	commit(int64(time.Hour))
	if err := fleetGate(got, 0.10, true); err != nil {
		t.Errorf("gate against a 1 h committed p50: %v", err)
	}
}
