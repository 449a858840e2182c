// Package machine describes clustered VLIW targets: clusters of
// function units with private register files, connected by broadcast
// buses or dedicated point-to-point links, exactly as in Section 2.1 of
// the paper. It also supplies the Table 2 operation latencies and the
// equally-wide unified machine used as the comparison baseline.
package machine

import (
	"fmt"

	"clustersched/internal/ddg"
	"clustersched/internal/diag"
)

// FUClass is a function-unit class. A general-purpose (GP) unit runs
// any operation; fully specialized (FS) units are split into memory,
// integer, and floating-point groups.
type FUClass int

// Function unit classes.
const (
	FUGeneral FUClass = iota
	FUMemory
	FUInteger
	FUFloat
	numFUClasses
)

// NumFUClasses is the number of distinct function-unit classes.
const NumFUClasses = int(numFUClasses)

var fuClassNames = [...]string{
	FUGeneral: "gp",
	FUMemory:  "mem",
	FUInteger: "int",
	FUFloat:   "fp",
}

// String returns the class mnemonic.
func (c FUClass) String() string {
	if c < 0 || int(c) >= len(fuClassNames) {
		return fmt.Sprintf("fuclass(%d)", int(c))
	}
	return fuClassNames[c]
}

// CanExecute reports whether a unit of this class may issue an
// operation of kind k. Copy operations never occupy a function unit
// (paper Section 2.1); they are matched against ports and buses only.
func (c FUClass) CanExecute(k ddg.OpKind) bool {
	if k == ddg.OpCopy {
		return false
	}
	switch c {
	case FUGeneral:
		return true
	case FUMemory:
		return k == ddg.OpLoad || k == ddg.OpStore
	case FUInteger:
		return k == ddg.OpALU || k == ddg.OpShift || k == ddg.OpBranch
	case FUFloat:
		return k == ddg.OpFAdd || k == ddg.OpFMul || k == ddg.OpFDiv || k == ddg.OpFSqrt
	default:
		return false
	}
}

// RequiredClass returns the FU class that executes kind k on a fully
// specialized machine.
func RequiredClass(k ddg.OpKind) FUClass {
	switch k {
	case ddg.OpLoad, ddg.OpStore:
		return FUMemory
	case ddg.OpALU, ddg.OpShift, ddg.OpBranch:
		return FUInteger
	case ddg.OpFAdd, ddg.OpFMul, ddg.OpFDiv, ddg.OpFSqrt:
		return FUFloat
	default:
		return FUGeneral
	}
}

// Cluster describes one cluster: its function units plus the read and
// write ports that connect its register file to the inter-cluster
// communication fabric.
type Cluster struct {
	FUs        []FUClass
	ReadPorts  int // ports feeding outgoing copies
	WritePorts int // ports accepting incoming copy results
}

// FUCountFor returns how many units of the cluster may execute kind k.
func (c *Cluster) FUCountFor(k ddg.OpKind) int {
	n := 0
	for _, fu := range c.FUs {
		if fu.CanExecute(k) {
			n++
		}
	}
	return n
}

// Width returns the number of function units in the cluster.
func (c *Cluster) Width() int { return len(c.FUs) }

// Network selects the inter-cluster communication fabric.
type Network int

// Network kinds.
const (
	// Broadcast: copies reserve one of Config.Buses for a cycle and the
	// value may be written to any cluster with a free write port; a
	// value therefore needs at most one copy operation.
	Broadcast Network = iota
	// PointToPoint: copies reserve a dedicated link between two
	// adjacent clusters; each copy reaches exactly one cluster.
	PointToPoint
)

// String names the network kind.
func (n Network) String() string {
	switch n {
	case Broadcast:
		return "broadcast"
	case PointToPoint:
		return "point-to-point"
	default:
		return fmt.Sprintf("network(%d)", int(n))
	}
}

// Link is a dedicated bidirectional connection between clusters A and B.
type Link struct {
	A, B int
}

// Config is a complete machine description.
type Config struct {
	Name      string
	Clusters  []Cluster
	Network   Network
	Buses     int    // number of broadcast buses (Broadcast network)
	Links     []Link // dedicated connections (PointToPoint network)
	Latencies [ddg.NumOpKinds]int
	// NonPipelined marks operation kinds whose function unit stays
	// busy for the whole latency instead of accepting a new operation
	// every cycle (real machines rarely pipeline dividers). The unit
	// is occupied for Latency(k) consecutive cycles.
	NonPipelined [ddg.NumOpKinds]bool
}

// DefaultLatencies returns the Table 2 operation latencies: one cycle
// for ALU/shift/branch/store/FP-add/copy, two for loads, three for FP
// multiply, nine for FP divide and square root.
func DefaultLatencies() [ddg.NumOpKinds]int {
	var lat [ddg.NumOpKinds]int
	lat[ddg.OpALU] = 1
	lat[ddg.OpShift] = 1
	lat[ddg.OpBranch] = 1
	lat[ddg.OpStore] = 1
	lat[ddg.OpFAdd] = 1
	lat[ddg.OpCopy] = 1
	lat[ddg.OpLoad] = 2
	lat[ddg.OpFMul] = 3
	lat[ddg.OpFDiv] = 9
	lat[ddg.OpFSqrt] = 9
	return lat
}

// Latency returns the latency of operation kind k on this machine.
func (m *Config) Latency(k ddg.OpKind) int { return m.Latencies[k] }

// Occupancy returns how many consecutive cycles an operation of kind k
// holds its function unit: one on fully pipelined units, the full
// latency on non-pipelined ones.
func (m *Config) Occupancy(k ddg.OpKind) int {
	if m.NonPipelined[k] {
		return m.Latencies[k]
	}
	return 1
}

// NumClusters returns the cluster count.
func (m *Config) NumClusters() int { return len(m.Clusters) }

// TotalWidth returns the machine's total number of function units.
func (m *Config) TotalWidth() int {
	w := 0
	for i := range m.Clusters {
		w += m.Clusters[i].Width()
	}
	return w
}

// FUCountFor returns how many units across the whole machine may
// execute kind k.
func (m *Config) FUCountFor(k ddg.OpKind) int {
	n := 0
	for i := range m.Clusters {
		n += m.Clusters[i].FUCountFor(k)
	}
	return n
}

// Clustered reports whether the machine has more than one cluster.
func (m *Config) Clustered() bool { return len(m.Clusters) > 1 }

// LinkBetween returns the index into Links of the connection between
// clusters a and b, or -1 when they are not adjacent.
func (m *Config) LinkBetween(a, b int) int {
	for i, l := range m.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return i
		}
	}
	return -1
}

// LinksAt returns the indices of all links incident to cluster c.
func (m *Config) LinksAt(c int) []int {
	var out []int
	for i, l := range m.Links {
		if l.A == c || l.B == c {
			out = append(out, i)
		}
	}
	return out
}

// Path returns the sequence of clusters of a shortest route from
// cluster a to cluster b over the link fabric (BFS), including both
// endpoints. On a broadcast machine the path is always [a, b]. It
// returns nil when b is unreachable from a.
func (m *Config) Path(a, b int) []int {
	if a == b {
		return []int{a}
	}
	if m.Network == Broadcast {
		return []int{a, b}
	}
	prev := make([]int, len(m.Clusters))
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, li := range m.LinksAt(u) {
			l := m.Links[li]
			v := l.A
			if v == u {
				v = l.B
			}
			if prev[v] != -1 {
				continue
			}
			prev[v] = u
			if v == b {
				var path []int
				for w := b; w != a; w = prev[w] {
					path = append(path, w)
				}
				path = append(path, a)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// Configuration diagnostic codes reported by Lint. Package lint layers
// additional MACH-prefixed advisory codes on top of these.
const (
	CodeNoClusters     = "MACH001" // machine without clusters
	CodeEmptyCluster   = "MACH002" // cluster with zero function units
	CodeOrphanKind     = "MACH003" // operation kind executable nowhere
	CodeNegativePorts  = "MACH004" // cluster with a negative port count
	CodeNoBuses        = "MACH005" // clustered broadcast machine with no bus
	CodeNoLinks        = "MACH006" // clustered point-to-point machine with no links
	CodeBadLink        = "MACH007" // link endpoint out of range or self-link
	CodeUnreachable    = "MACH008" // cluster pair with no link path
	CodeUnknownNetwork = "MACH009" // network kind out of range
	CodeLatencyGap     = "MACH010" // operation kind with non-positive latency
	CodeTooLarge       = "MACH015" // resource count past MaxResources
)

// MaxResources bounds every resource count of a schedulable machine:
// clusters, buses, links, and the function units and read and write
// ports of one cluster. The cycle-exact reservation table packs each
// resource family into 64-bit lane masks, and the assigner keeps the
// clusters a node has tried in a 64-bit mask.
const MaxResources = 64

// Lint checks the configuration for internal consistency and returns
// all problems as diagnostics, not just the first.
func (m *Config) Lint() []diag.Diagnostic {
	var r diag.Reporter
	mname := fmt.Sprintf("machine %q", m.Name)
	if len(m.Clusters) == 0 {
		r.Report(diag.Diagnostic{
			Code: CodeNoClusters, Severity: diag.Error, Subject: mname,
			Message: fmt.Sprintf("machine %q: no clusters", m.Name),
			Fix:     "add at least one cluster with function units",
		})
	}
	tooLarge := func(subject, what string, n int) {
		if n > MaxResources {
			r.Report(diag.Diagnostic{
				Code: CodeTooLarge, Severity: diag.Error, Subject: subject,
				Message: fmt.Sprintf("machine %q: %d %s, more than the %d the schedulers support", m.Name, n, what, MaxResources),
				Fix:     fmt.Sprintf("keep every resource count at or below %d", MaxResources),
			})
		}
	}
	tooLarge(mname, "clusters", len(m.Clusters))
	tooLarge(mname, "buses", m.Buses)
	tooLarge(mname, "links", len(m.Links))
	for i := range m.Clusters {
		c := &m.Clusters[i]
		subject := fmt.Sprintf("cluster %d", i)
		if len(c.FUs) == 0 {
			r.Errorf(CodeEmptyCluster, subject, "machine %q: cluster %d has no function units", m.Name, i)
		}
		if c.ReadPorts < 0 || c.WritePorts < 0 {
			r.Errorf(CodeNegativePorts, subject, "machine %q: cluster %d has negative port count", m.Name, i)
		}
		tooLarge(subject, "function units", len(c.FUs))
		tooLarge(subject, "read ports", c.ReadPorts)
		tooLarge(subject, "write ports", c.WritePorts)
	}
	switch m.Network {
	case Broadcast:
		if len(m.Clusters) > 1 && m.Buses <= 0 {
			r.Report(diag.Diagnostic{
				Code: CodeNoBuses, Severity: diag.Error, Subject: mname,
				Message: fmt.Sprintf("machine %q: clustered broadcast machine needs at least one bus", m.Name),
				Fix:     "set Buses >= 1 so inter-cluster copies have a fabric to ride",
			})
		}
	case PointToPoint:
		if len(m.Clusters) > 1 && len(m.Links) == 0 {
			r.Errorf(CodeNoLinks, mname, "machine %q: clustered point-to-point machine needs links", m.Name)
		}
		badLink := false
		for i, l := range m.Links {
			if l.A < 0 || l.A >= len(m.Clusters) || l.B < 0 || l.B >= len(m.Clusters) || l.A == l.B {
				r.Errorf(CodeBadLink, fmt.Sprintf("link %d", i), "machine %q: link %d (%d-%d) is invalid", m.Name, i, l.A, l.B)
				badLink = true
			}
		}
		// Every pair of clusters must be bridgeable, possibly via hops.
		// Skip when a link is malformed: Path would chase bad endpoints.
		if !badLink {
			for a := 0; a < len(m.Clusters); a++ {
				for b := a + 1; b < len(m.Clusters); b++ {
					if m.Path(a, b) == nil {
						r.Report(diag.Diagnostic{
							Code: CodeUnreachable, Severity: diag.Error,
							Subject: fmt.Sprintf("clusters %d,%d", a, b),
							Message: fmt.Sprintf("machine %q: cluster %d cannot reach cluster %d", m.Name, a, b),
							Fix:     "add links until the cluster graph is connected",
						})
					}
				}
			}
		}
	default:
		r.Errorf(CodeUnknownNetwork, mname, "machine %q: unknown network %d", m.Name, int(m.Network))
	}
	for k := 0; k < ddg.NumOpKinds; k++ {
		if m.Latencies[k] <= 0 {
			r.Report(diag.Diagnostic{
				Code: CodeLatencyGap, Severity: diag.Error,
				Subject: fmt.Sprintf("kind %s", ddg.OpKind(k)),
				Message: fmt.Sprintf("machine %q: kind %s has non-positive latency %d", m.Name, ddg.OpKind(k), m.Latencies[k]),
				Fix:     "fill the latency table for every operation kind (see machine.DefaultLatencies)",
			})
		}
		if ddg.OpKind(k) == ddg.OpCopy {
			continue
		}
		if len(m.Clusters) > 0 && m.FUCountFor(ddg.OpKind(k)) == 0 {
			r.Report(diag.Diagnostic{
				Code: CodeOrphanKind, Severity: diag.Error,
				Subject: fmt.Sprintf("kind %s", ddg.OpKind(k)),
				Message: fmt.Sprintf("machine %q: no function unit can execute %s", m.Name, ddg.OpKind(k)),
				Fix:     "add a general-purpose unit or a specialized unit covering the kind to some cluster",
			})
		}
	}
	return r.Diagnostics()
}

// Validate checks the configuration for internal consistency. It
// returns nil for a consistent machine, or a *diag.List carrying every
// violation, whose Error string leads with the first one.
func (m *Config) Validate() error {
	if err := diag.AsError(m.Lint()); err != nil {
		return err
	}
	return nil
}

// Unified returns the equally wide non-clustered baseline: a single
// cluster holding every function unit of m, with no communication
// fabric. This is the comparison machine used throughout the paper's
// evaluation.
func (m *Config) Unified() *Config {
	var fus []FUClass
	for i := range m.Clusters {
		fus = append(fus, m.Clusters[i].FUs...)
	}
	return &Config{
		Name:         m.Name + "-unified",
		Clusters:     []Cluster{{FUs: fus}},
		Network:      Broadcast,
		Latencies:    m.Latencies,
		NonPipelined: m.NonPipelined,
	}
}

// String summarizes the configuration.
func (m *Config) String() string {
	s := fmt.Sprintf("%s: %d cluster(s)", m.Name, len(m.Clusters))
	if m.Clustered() {
		switch m.Network {
		case Broadcast:
			s += fmt.Sprintf(", %d bus(es)", m.Buses)
		case PointToPoint:
			s += fmt.Sprintf(", %d link(s)", len(m.Links))
		}
	}
	return s
}
