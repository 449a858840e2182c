package assign

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// diffMachines is the machine mix the differential layer exercises:
// broadcast GP, broadcast with specialized FS clusters, the paper's
// point-to-point grid, a larger ring with multi-hop routes, and a
// deliberately starved bused machine that forces heavy backtracking.
func diffMachines() []*machine.Config {
	return []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewBusedGP(4, 1, 1),
		machine.NewBusedFS(2, 2, 1),
		machine.NewGrid4(2),
		machine.NewRing(6, 2),
	}
}

// equalResults compares every observable field of two assignment
// results, byte for byte.
func equalResults(got, want *Result) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("got result %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if !reflect.DeepEqual(got.ClusterOf, want.ClusterOf) {
		return fmt.Errorf("ClusterOf: got %v, want %v", got.ClusterOf, want.ClusterOf)
	}
	if !reflect.DeepEqual(got.CopyTargets, want.CopyTargets) {
		return fmt.Errorf("CopyTargets: got %v, want %v", got.CopyTargets, want.CopyTargets)
	}
	if got.NumOriginal != want.NumOriginal || got.Copies != want.Copies || got.Evictions != want.Evictions {
		return fmt.Errorf("counts: got (orig=%d copies=%d evict=%d), want (orig=%d copies=%d evict=%d)",
			got.NumOriginal, got.Copies, got.Evictions, want.NumOriginal, want.Copies, want.Evictions)
	}
	if !reflect.DeepEqual(got.Graph.Nodes, want.Graph.Nodes) {
		return fmt.Errorf("graph nodes differ")
	}
	if !reflect.DeepEqual(got.Graph.Edges, want.Graph.Edges) {
		return fmt.Errorf("graph edges differ: got %v, want %v", got.Graph.Edges, want.Graph.Edges)
	}
	return nil
}

// runBoth assigns g on m at ii with the incremental engine and with
// the scratch reference, and reports any observable difference.
func runBoth(g *ddg.Graph, m *machine.Config, ii int, opts Options) error {
	inc, incOK := Run(g, m, ii, opts)
	ref := opts
	ref.scratchEval = true
	sc, scOK := Run(g, m, ii, ref)
	if incOK != scOK {
		return fmt.Errorf("feasibility: engine %v, reference %v", incOK, scOK)
	}
	if !incOK {
		return nil
	}
	return equalResults(inc, sc)
}

// TestIncrementalMatchesReferenceOnSuite replays a slice of the
// benchmark suite on every machine shape at MII and under II slack,
// asserting the engine-backed Run is byte-identical to the scratch
// reference: same feasibility, cluster vector, copies, rerouted graph,
// and eviction count.
func TestIncrementalMatchesReferenceOnSuite(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 7, Count: 24})
	for mi, m := range diffMachines() {
		for li, g := range loops {
			base := mii.MII(g, m)
			for _, bump := range []int{0, 2} {
				opts := Options{Variant: HeuristicIterative}
				if err := runBoth(g, m, base+bump, opts); err != nil {
					t.Fatalf("machine %d loop %d ii %d: %v", mi, li, base+bump, err)
				}
			}
		}
	}
}

// TestIncrementalMatchesReferenceVariants covers the other three paper
// variants and both ablation switches on a smaller slice.
func TestIncrementalMatchesReferenceVariants(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 11, Count: 8})
	m := machine.NewBusedGP(4, 2, 1)
	for li, g := range loops {
		ii := mii.MII(g, m)
		for _, opts := range []Options{
			{Variant: Simple},
			{Variant: SimpleIterative},
			{Variant: Heuristic},
			{Variant: HeuristicIterative, DisableIncomingPrediction: true},
			{Variant: HeuristicIterative, EvictOldest: true},
			{Variant: HeuristicIterative, NaiveOrdering: true},
		} {
			if err := runBoth(g, m, ii, opts); err != nil {
				t.Fatalf("loop %d opts %+v: %v", li, opts, err)
			}
		}
	}
}

// TestSelfCheckOnSuite runs with the per-evaluate oracle comparison
// enabled: every candidate metric of every node on every cluster must
// match the reference exactly, not just the final result.
func TestSelfCheckOnSuite(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 3, Count: 10})
	for mi, m := range diffMachines() {
		for li, g := range loops {
			ii := mii.MII(g, m)
			opts := Options{Variant: HeuristicIterative, selfCheck: true}
			if _, ok := Run(g, m, ii, opts); !ok {
				// Infeasible at MII is fine; the self-check ran on the
				// way there. Retry with slack so feasible paths are
				// covered too.
				Run(g, m, ii+2, opts)
			}
			_ = mi
			_ = li
		}
	}
}

// TestSCCMatesPrecomputed checks the constructor's sccMembers lists
// against the brute-force scan for every node.
func TestSCCMatesPrecomputed(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 5, Count: 12})
	m := machine.NewBusedGP(2, 2, 1)
	for li, g := range loops {
		a := newAssigner(g, m, mii.MII(g, m), Options{})
		for n := 0; n < g.NumNodes(); n++ {
			want := a.sccMatesScan(n)
			var got []int
			if scc := a.sccOf[n]; scc >= 0 {
				for _, mate := range a.sccMembers[scc] {
					if mate != n {
						got = append(got, mate)
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loop %d node %d: precomputed mates %v, scan %v", li, n, got, want)
			}
		}
	}
}

// checkEngineAgainstDerive asserts every engine invariant against a
// fresh scratch derive of the same cluster vector.
func checkEngineAgainstDerive(t *testing.T, a *assigner) {
	t.Helper()
	e := a.eng
	d := a.derive()
	if !d.ok {
		t.Fatalf("engine reached a state the oracle calls infeasible: %+v", d.viol)
	}
	if e.copies != d.copies {
		t.Fatalf("copies: engine %d, derive %d", e.copies, d.copies)
	}
	var flat []copyRecord
	for p := 0; p < a.g.NumNodes(); p++ {
		if len(e.recs[p]) != d.rc[p] {
			t.Fatalf("rc[%d]: engine %d, derive %d", p, len(e.recs[p]), d.rc[p])
		}
		for _, r := range e.recs[p] {
			flat = append(flat, copyRecord{producer: p, src: r.src, targets: e.targets(p, r), link: r.link})
		}
	}
	if len(flat) != len(d.records) {
		t.Fatalf("record count: engine %d, derive %d", len(flat), len(d.records))
	}
	for i := range flat {
		g, w := flat[i], d.records[i]
		if g.producer != w.producer || g.src != w.src || g.link != w.link ||
			!reflect.DeepEqual(append([]int{}, g.targets...), append([]int{}, w.targets...)) {
			t.Fatalf("record %d: engine %+v, derive %+v", i, g, w)
		}
	}
	for cl := 0; cl < a.m.NumClusters(); cl++ {
		if e.pcrSum[cl] != a.pcr(d, cl) {
			t.Fatalf("pcrSum[%d]: engine %d, oracle %d", cl, e.pcrSum[cl], a.pcr(d, cl))
		}
		if e.picCnt[cl] != a.pic(cl) {
			t.Fatalf("picCnt[%d]: engine %d, oracle %d", cl, e.picCnt[cl], a.pic(cl))
		}
		if e.cap.FreeSlots(cl) != d.cap.FreeSlots(cl) {
			t.Fatalf("FreeSlots[%d]: engine %d, derive %d", cl, e.cap.FreeSlots(cl), d.cap.FreeSlots(cl))
		}
		if e.cap.FreeReadPortSlots(cl) != d.cap.FreeReadPortSlots(cl) {
			t.Fatalf("FreeReadPortSlots[%d]: engine %d, derive %d",
				cl, e.cap.FreeReadPortSlots(cl), d.cap.FreeReadPortSlots(cl))
		}
		if e.cap.FreeWritePortSlots(cl) != d.cap.FreeWritePortSlots(cl) {
			t.Fatalf("FreeWritePortSlots[%d]: engine %d, derive %d",
				cl, e.cap.FreeWritePortSlots(cl), d.cap.FreeWritePortSlots(cl))
		}
	}
	if e.cap.FreeBusSlots() != d.cap.FreeBusSlots() {
		t.Fatalf("FreeBusSlots: engine %d, derive %d", e.cap.FreeBusSlots(), d.cap.FreeBusSlots())
	}
	for li := range a.m.Links {
		if e.cap.FreeLinkSlots(li) != d.cap.FreeLinkSlots(li) {
			t.Fatalf("FreeLinkSlots[%d]: engine %d, derive %d",
				li, e.cap.FreeLinkSlots(li), d.cap.FreeLinkSlots(li))
		}
	}
	for n := 0; n < a.g.NumNodes(); n++ {
		want := 0
		for _, s := range a.succsOf(n) {
			if a.cluster[s] < 0 {
				want++
			}
		}
		if e.usc[n] != want {
			t.Fatalf("usc[%d]: engine %d, recount %d", n, e.usc[n], want)
		}
	}
}

// TestEngineInvariants drives the engine through random sequences of
// applies and unassignments (cluster[n] = -1 followed by rebuild, the
// route forced placement takes for evictions) and validates every
// maintained quantity against a scratch derive after each step; failed
// applies must leave no trace.
func TestEngineInvariants(t *testing.T) {
	for mi, m := range diffMachines() {
		rng := rand.New(rand.NewSource(int64(100 + mi)))
		for trial := 0; trial < 6; trial++ {
			g := loopgen.Loop(rng)
			a := newAssigner(g, m, mii.MII(g, m)+rng.Intn(3), Options{Variant: HeuristicIterative})
			e := a.eng
			for step := 0; step < 120; step++ {
				n := rng.Intn(g.NumNodes())
				if a.cluster[n] >= 0 {
					a.cluster[n] = -1
					if !e.rebuild() {
						t.Fatalf("rebuild failed after unassigning node %d", n)
					}
					checkEngineAgainstDerive(t, a)
					continue
				}
				cl := rng.Intn(m.NumClusters())
				before := struct {
					copies, free, bus int
				}{e.copies, e.cap.FreeSlots(cl), e.cap.FreeBusSlots()}
				if !e.apply(n, cl) {
					if a.cluster[n] != -1 {
						t.Fatalf("failed apply left node %d assigned", n)
					}
					if e.copies != before.copies || e.cap.FreeSlots(cl) != before.free ||
						e.cap.FreeBusSlots() != before.bus {
						t.Fatalf("failed apply leaked state on machine %d", mi)
					}
				}
				checkEngineAgainstDerive(t, a)
			}
		}
	}
}

// FuzzAssignDifferential feeds random loops, machines, variants, and
// II slack through both the incremental and reference implementations
// and requires byte-identical results, plus a clean self-check pass.
func FuzzAssignDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(1))
	f.Add(int64(3), uint8(2), uint8(1), uint8(0))
	f.Add(int64(4), uint8(3), uint8(2), uint8(2))
	f.Add(int64(5), uint8(4), uint8(3), uint8(0))
	f.Add(int64(6), uint8(5), uint8(3), uint8(1))
	f.Add(int64(7), uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, mSel, vSel, iiBump uint8) {
		machines := diffMachines()
		m := machines[int(mSel)%len(machines)]
		g := loopgen.Loop(rand.New(rand.NewSource(seed)))
		ii := mii.MII(g, m) + int(iiBump%3)
		opts := Options{Variant: Variant(int(vSel) % 4)}
		if err := runBoth(g, m, ii, opts); err != nil {
			t.Fatalf("seed %d machine %d variant %v ii %d: %v", seed, int(mSel)%len(machines), opts.Variant, ii, err)
		}
		opts.selfCheck = true
		Run(g, m, ii, opts) // panics on any per-candidate divergence
	})
}

// TestAssignSteadyStateAllocs pins the allocation behavior of the
// steady-state evaluate/select/commit loop at zero: after the reusable
// buffers reach their high-water marks, assigning a whole loop and
// clearing it with the per-II reset the search uses touches the heap
// not at all.
func TestAssignSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; accounting is meaningless")
	}
	var g *ddg.Graph
	for _, cand := range loopgen.Suite(loopgen.Options{Seed: 1, Count: 64}) {
		if g == nil || cand.NumNodes() > g.NumNodes() {
			g = cand
		}
	}
	m := machine.NewBusedGP(4, 4, 2)
	a := newAssigner(g, m, mii.MII(g, m), Options{Variant: HeuristicIterative})
	cycle := func() {
		for n := 0; n < g.NumNodes(); n++ {
			if a.cluster[n] >= 0 {
				continue
			}
			cands := a.evaluate(n)
			list := a.feasibleList(cands)
			if len(list) == 0 {
				continue // forced placement is the non-steady-state path
			}
			a.place(n, a.selectCluster(n, list, cands))
		}
		a.reset(a.ii)
	}
	// The reset clears the Section 4.3.2 prevMask bookkeeping too, so
	// every pass makes the same placements; one warm-up pass grows the
	// reusable buffers to their high-water marks.
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("steady-state evaluate/commit loop allocates %.1f times per pass, want 0", avg)
	}
}
