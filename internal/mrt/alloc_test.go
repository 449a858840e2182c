package mrt

import (
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// Steady-state allocation gates for the probe API: after a warm-up
// pass that sizes the placement arena and its write-slot buffers,
// probe/commit/release must not allocate on either fidelity.

func TestCapacityHotPathAllocFree(t *testing.T) {
	m := machine.NewBusedGP(3, 2, 2)
	c := NewCapacity(m, 4)
	op := OpAt(0, 0, ddg.OpALU)
	cp := CopyAt(1, 0, []int{1, 2})

	work := func() {
		c.CommitOp(op, 0)
		c.CommitOp(cp, 0)
		c.ReleaseOp(cp)
		c.ReleaseOp(op)
	}
	work()

	if n := testing.AllocsPerRun(200, func() {
		if !c.ProbeOp(op, 0) || !c.ProbeOp(cp, 0) {
			t.Fatal("probes should succeed on an empty table")
		}
	}); n != 0 {
		t.Errorf("Capacity.ProbeOp allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, work); n != 0 {
		t.Errorf("Capacity commit/release allocates %.1f/op, want 0", n)
	}
}

func TestCycleHotPathAllocFree(t *testing.T) {
	m := machine.NewBusedGP(3, 2, 2)
	c := NewCycle(m, 4)
	op := OpAt(0, 0, ddg.OpALU)
	cp := CopyAt(1, 0, []int{1, 2})
	buf := make([]int, 0, 16)

	work := func() {
		c.CommitOp(op, 1)
		c.CommitOp(cp, 2)
		c.ReleaseOp(Op{Node: 1})
		c.ReleaseOp(Op{Node: 0})
	}
	work() // warm placements and the arena

	if n := testing.AllocsPerRun(200, func() {
		if !c.ProbeOp(op, 1) || !c.ProbeOp(cp, 2) {
			t.Fatal("probes should succeed on an empty table")
		}
	}); n != 0 {
		t.Errorf("Cycle.ProbeOp allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, work); n != 0 {
		t.Errorf("Cycle commit/release allocates %.1f/op, want 0", n)
	}
	c.CommitOp(op, 1)
	if n := testing.AllocsPerRun(200, func() {
		buf = c.ConflictsOf(op, 1, buf)
	}); n != 0 {
		t.Errorf("Cycle.ConflictsOf allocates %.1f/op, want 0", n)
	}
}
