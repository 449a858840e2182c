package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"clustersched/internal/balance"
	"clustersched/internal/client"
	"clustersched/internal/ddg"
	"clustersched/internal/ddgio"
	"clustersched/internal/server"
)

// Fleet mode (scripts/bench.sh): replay the synthetic suite through a
// running clusterlb — one cold pass, then identical cached passes —
// and emit a JSON summary with per-request latency quantiles and the
// balancer's hedge/failover counters. scripts/bench.sh redirects this
// into BENCH_fleet.json; when a committed BENCH_fleet.json exists, the
// fresh cached p50 is also diffed against it under -basetol.

// fleetSummary is the BENCH_fleet.json shape.
type fleetSummary struct {
	Name    string `json:"name"`
	Fleet   string `json:"fleet"`
	Machine string `json:"machine"`
	Loops   int    `json:"loops"`
	Workers int    `json:"workers"`

	ColdP50NS    int64   `json:"cold_p50_ns"`
	ColdP99NS    int64   `json:"cold_p99_ns"`
	ColdRPS      float64 `json:"cold_rps"`
	ColdHits     int     `json:"cold_hits"`
	ColdFailed   int     `json:"cold_failed"`
	CachedP50NS  int64   `json:"cached_p50_ns"`
	CachedP99NS  int64   `json:"cached_p99_ns"`
	CachedRPS    float64 `json:"cached_rps"`
	CachedHits   int     `json:"cached_hits"`
	CachedFailed int     `json:"cached_failed"`

	Hedges         int64   `json:"hedges"`
	HedgeWins      int64   `json:"hedge_wins"`
	HedgeWinRate   float64 `json:"hedge_win_rate"`
	Failovers      int64   `json:"failovers"`
	RingRouted     int64   `json:"ring_routed"`
	ChoiceRouted   int64   `json:"choice_routed"`
	RingRebalances int64   `json:"ring_rebalances"`
}

// fleetReplay drives a running clusterlb with the synthetic suite and
// writes the summary JSON to out. The cold pass runs once (a repeat
// would be cached); the cached pass runs reps times and each request's
// latency is its minimum across passes — the least-interfered
// estimate on a time-shared host. With a committed BENCH_fleet.json
// present the cached p50 is gated against it (tol is the allowed
// fractional regression); requireBase errors if the committed file is
// missing, used when -basetol was passed explicitly.
func fleetReplay(ctx context.Context, out io.Writer, baseURL string, loops []*ddg.Graph, scheduler string, reps int, tol float64, requireBase bool) error {
	c := client.New(baseURL, nil)
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("no clusterlb at %s: %w", baseURL, err)
	}

	reqs := make([]server.ScheduleRequest, len(loops))
	for i, g := range loops {
		var buf strings.Builder
		if err := ddgio.Write(&buf, fmt.Sprintf("loop%d", i), g); err != nil {
			return err
		}
		reqs[i] = server.ScheduleRequest{DDG: buf.String(), Machine: "gp:2:2:1", Scheduler: scheduler}
	}

	pass := func() (lat []time.Duration, elapsed time.Duration, hits, failed int, err error) {
		lat = make([]time.Duration, 0, len(reqs))
		start := time.Now()
		for _, req := range reqs {
			if ctx.Err() != nil {
				return nil, 0, 0, 0, ctx.Err()
			}
			t0 := time.Now()
			_, cached, err := c.Schedule(ctx, req)
			lat = append(lat, time.Since(t0))
			switch {
			case err == nil && cached:
				hits++
			case err != nil:
				// Unschedulable synthetic loops fail identically in both
				// passes and on a single node; transport errors through a
				// healthy balancer would fail the gate via the quantiles.
				failed++
			}
		}
		return lat, time.Since(start), hits, failed, nil
	}

	coldLat, coldNS, coldHits, coldFailed, err := pass()
	if err != nil {
		return err
	}
	if reps < 1 {
		reps = 1
	}
	var (
		cachedLat    []time.Duration
		cachedNS     time.Duration
		cachedHits   int
		cachedFailed int
	)
	for r := 0; r < reps; r++ {
		lat, elapsed, hits, failed, err := pass()
		if err != nil {
			return err
		}
		if r == 0 {
			cachedLat = lat
		} else {
			for i := range cachedLat {
				if lat[i] < cachedLat[i] {
					cachedLat[i] = lat[i]
				}
			}
		}
		if r == 0 || elapsed < cachedNS {
			cachedNS = elapsed
		}
		cachedHits, cachedFailed = hits, failed
	}

	stats, err := fleetStatsz(ctx, baseURL)
	if err != nil {
		return err
	}

	rps := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(len(reqs)) / d.Seconds()
	}
	summary := fleetSummary{
		Name:    "fleet_suite",
		Fleet:   baseURL,
		Machine: "gp:2:2:1",
		Loops:   len(reqs),
		Workers: len(stats.Workers),

		ColdP50NS:  quantileNS(coldLat, 0.50),
		ColdP99NS:  quantileNS(coldLat, 0.99),
		ColdRPS:    rps(coldNS),
		ColdHits:   coldHits,
		ColdFailed: coldFailed,

		CachedP50NS:  quantileNS(cachedLat, 0.50),
		CachedP99NS:  quantileNS(cachedLat, 0.99),
		CachedRPS:    rps(cachedNS),
		CachedHits:   cachedHits,
		CachedFailed: cachedFailed,

		Hedges:         stats.Fleet.Hedges,
		HedgeWins:      stats.Fleet.HedgeWins,
		Failovers:      stats.Fleet.Failovers,
		RingRouted:     stats.Fleet.RingRouted,
		ChoiceRouted:   stats.Fleet.ChoiceRouted,
		RingRebalances: stats.Fleet.RingRebalances,
	}
	if stats.Fleet.Hedges > 0 {
		summary.HedgeWinRate = float64(stats.Fleet.HedgeWins) / float64(stats.Fleet.Hedges)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summary); err != nil {
		return err
	}
	return fleetGate(summary, tol, requireBase)
}

// fleetGate diffs the fresh cached p50 against the committed
// BENCH_fleet.json in the working directory: tolerance is
// multiplicative headroom, regression exits non-zero. The gate reads
// the median, not the tail — p99 over a few hundred local requests
// swings far past any usable tolerance on a time-shared host, while
// the median is stable; p99 stays in the JSON for human eyes. A
// missing committed file is an error only when the caller demanded
// the gate.
func fleetGate(fresh fleetSummary, tol float64, requireBase bool) error {
	data, err := os.ReadFile("BENCH_fleet.json")
	if err != nil {
		if requireBase {
			return fmt.Errorf("fleet: %w (run scripts/bench.sh from the repository root)", err)
		}
		fmt.Fprintln(os.Stderr, "fleet: no committed BENCH_fleet.json, skipping the regression gate")
		return nil
	}
	var committed fleetSummary
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("fleet: BENCH_fleet.json: %w", err)
	}
	limit := int64(float64(committed.CachedP50NS) * (1 + tol))
	verdict := "ok"
	if fresh.CachedP50NS > limit {
		verdict = "REGRESSION"
	}
	fmt.Fprintf(os.Stderr, "fleet: cached p50 %10d ns fresh vs %10d committed (%.2fx, limit %d): %s\n",
		fresh.CachedP50NS, committed.CachedP50NS,
		float64(fresh.CachedP50NS)/float64(committed.CachedP50NS), limit, verdict)
	if verdict != "ok" {
		return fmt.Errorf("fleet: cached p50 regression beyond %.0f%% tolerance", tol*100)
	}
	return nil
}

// fleetStatsz fetches and decodes the balancer's /statsz.
func fleetStatsz(ctx context.Context, baseURL string) (*balance.StatszResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: statsz returned %d", resp.StatusCode)
	}
	var stats balance.StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// quantileNS returns the q-quantile of the latency sample in
// nanoseconds by nearest rank: the smallest sample with at least a
// q share of the sample at or below it, rank ceil(q·n).
func quantileNS(lat []time.Duration, q float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	buf := append([]time.Duration(nil), lat...)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(math.Ceil(q*float64(len(buf)))) - 1
	idx = max(0, min(idx, len(buf)-1))
	return buf[idx].Nanoseconds()
}
