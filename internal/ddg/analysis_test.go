package ddg

import (
	"testing"
)

// unitLat gives every kind latency 1 except loads (2).
func unitLat(k OpKind) int {
	if k == OpLoad {
		return 2
	}
	return 1
}

func TestEarliestStartChain(t *testing.T) {
	g := NewGraph(3, 2)
	a := g.AddNode(OpLoad, "") // latency 2
	b := g.AddNode(OpALU, "")
	c := g.AddNode(OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)

	estart, ok := g.EarliestStartInto(new(StartScratch), unitLat, 1)
	if !ok {
		t.Fatal("EarliestStartInto did not converge on an acyclic graph")
	}
	want := []int{0, 2, 3}
	for i, w := range want {
		if estart[i] != w {
			t.Errorf("estart[%d] = %d, want %d", i, estart[i], w)
		}
	}
}

func TestEarliestStartLoopCarried(t *testing.T) {
	// a -> b (dist 0), b -> a (dist 1): cycle latency 2, distance 1.
	g := NewGraph(2, 2)
	a := g.AddNode(OpALU, "")
	b := g.AddNode(OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 1)

	if _, ok := g.EarliestStartInto(new(StartScratch), unitLat, 1); ok {
		t.Error("II=1 should not converge (RecMII is 2)")
	}
	estart, ok := g.EarliestStartInto(new(StartScratch), unitLat, 2)
	if !ok {
		t.Fatal("II=2 should converge")
	}
	if estart[a] != 0 || estart[b] != 1 {
		t.Errorf("estart = %v, want [0 1]", estart)
	}
}

func TestLatestStartChain(t *testing.T) {
	g := NewGraph(3, 2)
	a := g.AddNode(OpALU, "")
	b := g.AddNode(OpALU, "")
	c := g.AddNode(OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	// A second, shorter path a -> c leaves c's LStart unchanged but
	// gives a no slack either way.
	g.AddEdge(a, c, 0)

	lstart, ok := g.LatestStartInto(new(StartScratch), unitLat, 1)
	if !ok {
		t.Fatal("LatestStartInto did not converge")
	}
	estart, _ := g.EarliestStartInto(new(StartScratch), unitLat, 1)
	for i := range lstart {
		if lstart[i] < estart[i] {
			t.Errorf("node %d: lstart %d < estart %d", i, lstart[i], estart[i])
		}
	}
	if lstart[c] != 2 {
		t.Errorf("lstart[c] = %d, want 2", lstart[c])
	}
	if lstart[a] != 0 {
		t.Errorf("lstart[a] = %d, want 0 (on critical path)", lstart[a])
	}
}

func TestLatestStartDivergesBelowRecMII(t *testing.T) {
	g := NewGraph(2, 2)
	a := g.AddNode(OpALU, "")
	b := g.AddNode(OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 1)
	if _, ok := g.LatestStartInto(new(StartScratch), unitLat, 1); ok {
		t.Error("LatestStartInto converged below RecMII")
	}
}

func TestEarliestStartEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	estart, ok := g.EarliestStartInto(new(StartScratch), unitLat, 1)
	if !ok || len(estart) != 0 {
		t.Errorf("empty graph: estart=%v ok=%v", estart, ok)
	}
}
