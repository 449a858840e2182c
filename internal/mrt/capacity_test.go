package mrt

import (
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

func TestCapacityFUCounting(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1) // 4 GP per cluster
	c := NewCapacity(m, 2)           // 8 slot-cycles per cluster

	for i := 0; i < 8; i++ {
		if !c.CommitOp(OpAt(0, 0, ddg.OpALU), 0) {
			t.Fatalf("placement %d should fit (capacity 8)", i)
		}
	}
	if c.CommitOp(OpAt(0, 0, ddg.OpALU), 0) {
		t.Error("ninth op placed beyond capacity")
	}
	if c.ProbeOp(OpAt(0, 0, ddg.OpLoad), 0) {
		t.Error("full cluster reported free")
	}
	if !c.ProbeOp(OpAt(0, 1, ddg.OpLoad), 0) {
		t.Error("other cluster should be free")
	}
	c.ReleaseOp(OpAt(0, 0, ddg.OpALU))
	if !c.ProbeOp(OpAt(0, 0, ddg.OpFAdd), 0) {
		t.Error("freed slot not reusable")
	}
	if got := c.FreeSlots(1); got != 8 {
		t.Errorf("FreeSlots(1) = %d, want 8", got)
	}
}

func TestCapacityFSChargesSpecializedClass(t *testing.T) {
	m := machine.NewBusedFS(1, 1, 1) // mem, int, int, fp
	m.Buses = 0                      // single cluster needs no bus
	c := NewCapacity(m, 1)

	if !c.CommitOp(OpAt(0, 0, ddg.OpLoad), 0) {
		t.Fatal("load should fit the memory unit")
	}
	if c.CommitOp(OpAt(0, 0, ddg.OpStore), 0) {
		t.Error("second memory op placed with one memory unit at II=1")
	}
	// Integer pool is independent: two units.
	if !c.CommitOp(OpAt(0, 0, ddg.OpALU), 0) || !c.CommitOp(OpAt(0, 0, ddg.OpShift), 0) {
		t.Error("two integer ops should fit")
	}
	if c.CommitOp(OpAt(0, 0, ddg.OpBranch), 0) {
		t.Error("third integer op placed with two integer units at II=1")
	}
	if c.ChargeClass(0, ddg.OpFMul) != machine.FUFloat {
		t.Error("FP op should charge the float class on FS clusters")
	}
}

func TestCapacityGPChargesGeneralPool(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0
	c := NewCapacity(m, 1)
	if c.ChargeClass(0, ddg.OpLoad) != machine.FUGeneral {
		t.Error("loads on a GP cluster charge the general pool")
	}
}

func TestBroadcastCopyAccounting(t *testing.T) {
	m := machine.NewBusedGP(3, 2, 1)
	c := NewCapacity(m, 1) // 1 read, 1 write slot per cluster, 2 bus slots

	if !c.CommitOp(CopyAt(0, 0, []int{1, 2}), 0) {
		t.Fatal("first copy should fit")
	}
	if c.FreeReadPortSlots(0) != 0 || c.FreeWritePortSlots(1) != 0 || c.FreeWritePortSlots(2) != 0 {
		t.Error("copy did not consume the expected ports")
	}
	if c.FreeBusSlots() != 1 {
		t.Errorf("FreeBusSlots = %d, want 1", c.FreeBusSlots())
	}
	// Second copy from cluster 0 fails: read port exhausted.
	if c.CommitOp(CopyAt(0, 0, nil), 0) {
		t.Error("copy placed without read port")
	}
	// From cluster 1, targeting cluster 2 fails on 2's write port.
	if c.CommitOp(CopyAt(0, 1, []int{2}), 0) {
		t.Error("copy placed without target write port")
	}
	// From cluster 1 with no extra target: fits (bus + read port left).
	if !c.CommitOp(CopyAt(0, 1, nil), 0) {
		t.Error("bus copy without targets should fit")
	}
	// Bus pool now empty.
	if c.CommitOp(CopyAt(0, 2, nil), 0) {
		t.Error("copy placed without bus")
	}
	c.ReleaseOp(CopyAt(0, 0, []int{1, 2}))
	if c.FreeReadPortSlots(0) != 1 || c.FreeBusSlots() != 1 {
		t.Error("removal did not release resources")
	}
}

func TestCopyWritePortBudget(t *testing.T) {
	m := machine.NewBusedGP(2, 1, 1)
	c := NewCapacity(m, 2)
	// Cluster 1 has 1 write port x II=2 slot-cycles.
	if !c.CommitOp(CopyAt(0, 0, []int{1}), 0) {
		t.Fatal("copy should fit")
	}
	if !c.CommitOp(CopyAt(1, 0, []int{1}), 0) {
		t.Fatal("second write slot on cluster 1 should exist at II=2")
	}
	if c.CommitOp(CopyAt(2, 0, []int{1}), 0) {
		t.Error("third write beyond capacity")
	}
	c.ReleaseOp(CopyAt(1, 0, []int{1}))
	if c.FreeWritePortSlots(1) != 1 {
		t.Error("released write slot not reusable")
	}
}

func TestLinkCopyAccounting(t *testing.T) {
	m := machine.NewGrid4(1)
	c := NewCapacity(m, 1)
	li := m.LinkBetween(0, 1)

	if !c.CommitOp(CopyAt(0, 0, []int{1}), 0) {
		t.Fatal("link copy should fit")
	}
	if c.FreeLinkSlots(li) != 0 {
		t.Error("link slot not consumed")
	}
	if c.CommitOp(CopyAt(0, 1, []int{0}), 0) {
		t.Error("link reused within the same II slot budget")
	}
	// The other link at cluster 0 is free, but 0's read port is gone.
	if c.CommitOp(CopyAt(0, 0, []int{2}), 0) {
		t.Error("copy placed without read port")
	}
	c.ReleaseOp(CopyAt(0, 0, []int{1}))
	if !c.CommitOp(CopyAt(0, 0, []int{2}), 0) {
		t.Error("released resources not reusable")
	}
}

func TestMaxReservableCopies(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	c := NewCapacity(m, 3) // read 3/cluster, bus 6
	if got := c.MaxReservableCopies(0); got != 3 {
		t.Errorf("MRC = %d, want 3 (read ports bind)", got)
	}
	// Consume bus slots from the other cluster until the bus binds.
	for i := 0; i < 3; i++ {
		if !c.CommitOp(CopyAt(0, 1, nil), 0) {
			t.Fatal("bus copy should fit")
		}
	}
	if got := c.MaxReservableCopies(0); got != 3 {
		t.Errorf("MRC = %d, want 3 (buses: 6-3=3)", got)
	}
	c.CommitOp(CopyAt(0, 0, nil), 0)
	if got := c.MaxReservableCopies(0); got != 2 {
		t.Errorf("MRC = %d, want 2", got)
	}
}

func TestMaxReservableCopiesGrid(t *testing.T) {
	m := machine.NewGrid4(2)
	c := NewCapacity(m, 2)
	// Read ports: 2*2=4; incident links: 2 links * 2 slots = 4.
	if got := c.MaxReservableCopies(0); got != 4 {
		t.Errorf("MRC = %d, want 4", got)
	}
	c.CommitOp(CopyAt(0, 0, []int{1}), 0)
	if got := c.MaxReservableCopies(0); got != 3 {
		t.Errorf("MRC = %d, want 3", got)
	}
}

func TestCapacityCopyFromRestores(t *testing.T) {
	m := machine.NewGrid4(1)
	base := NewCapacity(m, 2)
	base.CommitOp(OpAt(0, 0, ddg.OpALU), 0)
	base.CommitOp(CopyAt(1, 0, []int{1}), 0)
	want := snapshot(base, m)

	c := NewCapacity(m, 5) // different II: CopyFrom re-sizes
	c.CommitOp(OpAt(7, 3, ddg.OpFMul), 0)
	c.CopyFrom(base)
	if c.II() != 2 {
		t.Errorf("II after CopyFrom = %d, want 2", c.II())
	}
	if got := snapshot(c, m); !equalInts(got, want) {
		t.Errorf("CopyFrom state %v, want %v", got, want)
	}
	// The restored table keeps working independently.
	c.ReleaseOp(CopyAt(1, 0, []int{1}))
	if equalInts(snapshot(base, m), snapshot(c, m)) {
		t.Error("CopyFrom aliases the source's counters")
	}
}

func TestCapacityPanicsOnUnderflow(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	c := NewCapacity(m, 1)
	defer func() {
		if recover() == nil {
			t.Error("ReleaseOp on empty table should panic")
		}
	}()
	c.ReleaseOp(OpAt(0, 0, ddg.OpALU))
}

func TestNewCapacityPanicsOnBadII(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on II=0")
		}
	}()
	NewCapacity(machine.NewBusedGP(2, 2, 1), 0)
}

// snapshot captures every externally visible counter of a table, for
// comparing states across restores and resets.
func snapshot(c *Capacity, m *machine.Config) []int {
	var s []int
	for cl := 0; cl < m.NumClusters(); cl++ {
		s = append(s, c.FreeSlots(cl), c.FreeReadPortSlots(cl), c.FreeWritePortSlots(cl),
			c.MaxReservableCopies(cl), c.MaxReservableIncoming(cl))
	}
	s = append(s, c.FreeBusSlots())
	for li := range m.Links {
		s = append(s, c.FreeLinkSlots(li))
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestResetClearsUsage(t *testing.T) {
	m := machine.NewGrid4(1)
	c := NewCapacity(m, 2)
	fresh := snapshot(c, m)

	c.CommitOp(OpAt(0, 0, ddg.OpALU), 0)
	c.CommitOp(CopyAt(1, 0, []int{1}), 0)
	c.Reset()
	if got := snapshot(c, m); !equalInts(got, fresh) {
		t.Errorf("post-Reset state %v, want fresh %v", got, fresh)
	}
}
