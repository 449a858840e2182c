package clustersched_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"clustersched"
	"clustersched/internal/diag"
	"clustersched/internal/machine"
)

func dotProduct() *clustersched.Graph {
	g := clustersched.NewGraph()
	a := g.AddNode(clustersched.OpLoad, "a[i]")
	b := g.AddNode(clustersched.OpLoad, "b[i]")
	m := g.AddNode(clustersched.OpFMul, "t")
	s := g.AddNode(clustersched.OpFAdd, "s")
	g.AddEdge(a, m, 0)
	g.AddEdge(b, m, 0)
	g.AddEdge(m, s, 0)
	g.AddEdge(s, s, 1)
	return g
}

func TestScheduleDotProduct(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.II != 1 {
		t.Errorf("II = %d, want 1 (four ops on eight units, unit recurrence)", res.II)
	}
	if err := res.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if res.Stages() < 2 {
		t.Errorf("Stages = %d, want software pipelining overlap", res.Stages())
	}
}

func TestScheduleOnEveryMachineFamily(t *testing.T) {
	machines := []*clustersched.Machine{
		clustersched.BusedGP(2, 2, 1),
		clustersched.BusedGP(4, 4, 2),
		clustersched.BusedFS(2, 2, 1),
		clustersched.BusedFS(4, 4, 2),
		clustersched.Grid4(2),
	}
	for _, m := range machines {
		res, err := clustersched.Schedule(dotProduct(), m)
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		if err := res.Validate(); err != nil {
			t.Errorf("%s: invalid schedule: %v", m.Name, err)
		}
	}
}

func TestScheduleOptions(t *testing.T) {
	g := dotProduct()
	m := clustersched.BusedGP(2, 2, 1)
	for _, v := range []clustersched.Variant{
		clustersched.Simple, clustersched.SimpleIterative,
		clustersched.Heuristic, clustersched.HeuristicIterative,
	} {
		res, err := clustersched.Schedule(g, m, clustersched.WithVariant(v))
		if err != nil {
			t.Errorf("variant %s: %v", v, err)
			continue
		}
		if err := res.Validate(); err != nil {
			t.Errorf("variant %s: %v", v, err)
		}
	}
	res, err := clustersched.Schedule(g, m,
		clustersched.WithScheduler(clustersched.SMS),
		clustersched.WithBudget(4),
		clustersched.WithMaxIISlack(16))
	if err != nil {
		t.Fatalf("SMS schedule: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Errorf("SMS schedule invalid: %v", err)
	}
}

func TestMIIExported(t *testing.T) {
	g := dotProduct()
	if got := clustersched.MII(g, clustersched.BusedGP(2, 2, 1)); got != 1 {
		t.Errorf("MII = %d, want 1", got)
	}
}

func TestKernelAndPipelinedRender(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if k := res.Kernel(); !strings.Contains(k, "fadd:s") {
		t.Errorf("Kernel missing the accumulator:\n%s", k)
	}
	if p := res.Pipelined(); !strings.Contains(p, "prologue:") || !strings.Contains(p, "epilogue:") {
		t.Errorf("Pipelined missing sections:\n%s", p)
	}
}

func TestMaxLiveExposed(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	total, perCluster := res.MaxLive()
	if total <= 0 {
		t.Errorf("MaxLive = %d, want > 0", total)
	}
	if len(perCluster) != 2 {
		t.Errorf("perCluster = %v, want 2 entries", perCluster)
	}
}

func TestGenerateSuite(t *testing.T) {
	loops := clustersched.GenerateSuite(5, 25)
	if len(loops) != 25 {
		t.Fatalf("suite size = %d", len(loops))
	}
	for i, g := range loops {
		if err := g.Validate(); err != nil {
			t.Errorf("loop %d: %v", i, err)
		}
	}
}

func TestLoopTextRoundTrip(t *testing.T) {
	g := dotProduct()
	var buf bytes.Buffer
	if err := clustersched.WriteLoop(&buf, "dp", g); err != nil {
		t.Fatal(err)
	}
	loops, err := clustersched.ReadLoops(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 || loops[0].Name != "dp" {
		t.Fatalf("round trip: %+v", loops)
	}
	if loops[0].Graph.NumNodes() != g.NumNodes() {
		t.Error("node count changed in round trip")
	}
	// The round-tripped loop must still schedule.
	res, err := clustersched.Schedule(loops[0].Graph, clustersched.BusedFS(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCopiesAnnotatedOnClusteredMachines(t *testing.T) {
	// A wide independent loop on single-unit clusters forces copies;
	// the public Result must expose them coherently.
	g := clustersched.NewGraph()
	p := g.AddNode(clustersched.OpALU, "p")
	for i := 0; i < 3; i++ {
		c := g.AddNode(clustersched.OpALU, "")
		g.AddEdge(p, c, 0)
	}
	m := clustersched.BusedGP(4, 4, 2)
	// Shrink clusters to one unit to force distribution at II=1.
	for i := range m.Clusters {
		m.Clusters[i].FUs = m.Clusters[i].FUs[:1]
	}
	res, err := clustersched.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.II == 1 && res.Copies == 0 {
		t.Error("II=1 on single-unit clusters requires copies")
	}
	if res.Annotated.NumNodes() != g.NumNodes()+res.Copies {
		t.Error("Annotated node count inconsistent with Copies")
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestOptimizeStagesKeepsValidity(t *testing.T) {
	g := clustersched.NewGraph()
	a := g.AddNode(clustersched.OpLoad, "a")
	b := g.AddNode(clustersched.OpFDiv, "b")
	c := g.AddNode(clustersched.OpFAdd, "c")
	g.AddEdge(a, c, 0)
	g.AddEdge(b, c, 0)
	res, err := clustersched.Schedule(g, clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	liveBefore, _ := res.MaxLive()
	res.OptimizeStages()
	liveAfter, _ := res.MaxLive()
	if err := res.Validate(); err != nil {
		t.Fatalf("invalid after stage scheduling: %v", err)
	}
	if liveAfter > liveBefore {
		t.Errorf("MaxLive rose %d -> %d", liveBefore, liveAfter)
	}
}

func TestRegistersAllocation(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	alloc := res.Registers()
	if alloc.TotalRegisters() <= 0 {
		t.Error("no registers allocated")
	}
	if res.MVEFactor() < 1 {
		t.Error("MVE factor below 1")
	}
}

func TestDOTOutput(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	out := res.DOT()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "subgraph cluster_0") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
}

func TestCustomMachineConstruction(t *testing.T) {
	m := &clustersched.Machine{
		Name:    "custom",
		Network: clustersched.Broadcast,
		Buses:   2,
		Clusters: []clustersched.Cluster{
			clustersched.NewCluster([]clustersched.FUClass{
				clustersched.FUMemory, clustersched.FUInteger, clustersched.FUFloat,
			}, 1, 1),
			clustersched.NewCluster([]clustersched.FUClass{
				clustersched.FUGeneral, clustersched.FUGeneral,
			}, 2, 2),
		},
		Latencies: clustersched.DefaultLatencies(),
	}
	res, err := clustersched.Schedule(dotProduct(), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSimulateExposed(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.Grid4(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Simulate(0); err != nil {
		t.Errorf("Simulate: %v", err)
	}
}

func TestUnrollThroughPublicAPI(t *testing.T) {
	g := dotProduct().Unroll(3)
	if g.NumNodes() != 12 {
		t.Fatalf("unrolled nodes = %d, want 12", g.NumNodes())
	}
	res, err := clustersched.Schedule(g, clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
	if err := res.Simulate(0); err != nil {
		t.Errorf("unrolled kernel simulation: %v", err)
	}
}

func TestCompileSourceExposed(t *testing.T) {
	loops, err := clustersched.CompileSource(`loop dp { s = s + a[i]*b[i] }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 || loops[0].Name != "dp" {
		t.Fatalf("loops = %+v", loops)
	}
	res, err := clustersched.Schedule(loops[0].Graph, clustersched.BusedFS(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Simulate(0); err != nil {
		t.Errorf("compiled kernel simulation: %v", err)
	}
}

func TestHeterogeneousMachine(t *testing.T) {
	// Section 2.1: "the techniques presented produce assignments for
	// machines with arbitrary numbers of clusters which can be
	// homogeneous or heterogeneous in the types of function units they
	// contain."
	m := &clustersched.Machine{
		Name:    "hetero",
		Network: clustersched.Broadcast,
		Buses:   2,
		Clusters: []clustersched.Cluster{
			clustersched.NewCluster([]clustersched.FUClass{
				clustersched.FUGeneral, clustersched.FUGeneral, clustersched.FUGeneral, clustersched.FUGeneral,
			}, 1, 1),
			clustersched.NewCluster([]clustersched.FUClass{
				clustersched.FUMemory, clustersched.FUInteger, clustersched.FUFloat,
			}, 1, 1),
		},
		Latencies: clustersched.DefaultLatencies(),
	}
	for i, g := range clustersched.GenerateSuite(33, 40) {
		res, err := clustersched.Schedule(g, m)
		if err != nil {
			t.Errorf("loop %d: %v", i, err)
			continue
		}
		if err := res.Validate(); err != nil {
			t.Errorf("loop %d: %v", i, err)
		}
		if err := res.Simulate(0); err != nil {
			t.Errorf("loop %d: simulation: %v", i, err)
		}
	}
}

func TestRotatingRegistersExposed(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rot := res.RegistersRotating()
	if rot.TotalRegisters() <= 0 {
		t.Error("no rotating registers allocated")
	}
	if err := res.SimulateRotating(0); err != nil {
		t.Errorf("SimulateRotating: %v", err)
	}
}

func TestGanttExposed(t *testing.T) {
	res, err := clustersched.Schedule(dotProduct(), clustersched.BusedGP(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Gantt(); !strings.Contains(g, "kernel occupancy") {
		t.Errorf("Gantt output malformed:\n%s", g)
	}
}

// TestResourceCountBoundary walks every resource family to the 64/65
// boundary of the bitset layouts: at 64 the facade schedules, at 65 it
// returns the coded MACH015 error instead of panicking or scheduling
// past the cluster mask.
func TestResourceCountBoundary(t *testing.T) {
	// links joins 12 clusters by their first k pairs; the first 11
	// reach cluster 0 from every other, so the fabric is connected.
	links := func(k int) *clustersched.Machine {
		m := machine.NewRing(12, 1)
		m.Links = nil
		for a := 0; a < 12; a++ {
			for b := a + 1; b < 12 && len(m.Links) < k; b++ {
				m.Links = append(m.Links, clustersched.Link{A: a, B: b})
			}
		}
		return m
	}
	ports := func(read, write int) *clustersched.Machine {
		return &clustersched.Machine{Name: "ports", Network: clustersched.Broadcast, Buses: 1, Latencies: clustersched.DefaultLatencies(),
			Clusters: []clustersched.Cluster{machine.GPCluster(4, read, write), machine.GPCluster(4, read, write)}}
	}
	families := map[string]func(int) *clustersched.Machine{
		"clusters":    func(k int) *clustersched.Machine { return clustersched.BusedGP(k, 1, 1) },
		"buses":       func(k int) *clustersched.Machine { return clustersched.BusedGP(2, k, 1) },
		"links":       links,
		"units":       machine.NewUnifiedGP,
		"read ports":  func(k int) *clustersched.Machine { return ports(k, 1) },
		"write ports": func(k int) *clustersched.Machine { return ports(1, k) },
	}
	const n = machine.MaxResources
	for name, build := range families {
		if res, err := clustersched.Schedule(dotProduct(), build(n)); err != nil {
			t.Errorf("%s = %d: %v", name, n, err)
		} else if err := res.Validate(); err != nil {
			t.Errorf("%s = %d: invalid schedule: %v", name, n, err)
		}
		_, err := clustersched.Schedule(dotProduct(), build(n+1))
		var list *diag.List
		if !errors.As(err, &list) || !slices.ContainsFunc(list.Diags, func(d diag.Diagnostic) bool { return d.Code == machine.CodeTooLarge }) {
			t.Errorf("%s = %d: err = %v, want a *diag.List with %s", name, n+1, err, machine.CodeTooLarge)
		}
	}
}
