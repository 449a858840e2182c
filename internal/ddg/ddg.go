// Package ddg implements the data-dependence graph (DDG) that drives
// cluster assignment and modulo scheduling.
//
// A DDG node is one loop operation; a DDG edge (From, To, Distance)
// states that the value produced by From in iteration i is consumed by
// To in iteration i+Distance. Distance 0 is an intra-iteration flow
// dependence; Distance >= 1 is a loop-carried dependence (a recurrence
// when it closes a cycle).
package ddg

import (
	"fmt"
	"sort"
	"sync/atomic"

	"clustersched/internal/diag"
)

// OpKind classifies an operation. The latency of each kind is a machine
// property (see package machine); the kind also selects which function
// unit class may execute the operation on a fully specialized machine.
type OpKind int

// Operation kinds, following Table 2 of the paper.
const (
	OpALU OpKind = iota
	OpShift
	OpBranch
	OpLoad
	OpStore
	OpFAdd
	OpFMul
	OpFDiv
	OpFSqrt
	OpCopy // explicit inter-cluster move, inserted by cluster assignment
	numOpKinds
)

// NumOpKinds is the number of distinct operation kinds.
const NumOpKinds = int(numOpKinds)

var opKindNames = [...]string{
	OpALU:    "alu",
	OpShift:  "shift",
	OpBranch: "branch",
	OpLoad:   "load",
	OpStore:  "store",
	OpFAdd:   "fadd",
	OpFMul:   "fmul",
	OpFDiv:   "fdiv",
	OpFSqrt:  "fsqrt",
	OpCopy:   "copy",
}

// String returns the lower-case mnemonic of the kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("opkind(%d)", int(k))
	}
	return opKindNames[k]
}

// ParseOpKind converts a mnemonic produced by OpKind.String back into an
// OpKind. It reports false for unknown mnemonics.
func ParseOpKind(s string) (OpKind, bool) {
	for k, name := range opKindNames {
		if name == s {
			return OpKind(k), true
		}
	}
	return 0, false
}

// Node is one operation of the loop body.
type Node struct {
	ID   int    // dense index into Graph.Nodes
	Kind OpKind // operation class
	Name string // optional human-readable label
}

// Edge is a data dependence between two operations.
type Edge struct {
	From     int // producing node ID
	To       int // consuming node ID
	Distance int // iteration distance (>= 0)
}

// Graph is a data-dependence graph. The zero value is an empty graph
// ready for use; add operations with AddNode and AddEdge.
type Graph struct {
	Nodes []*Node
	Edges []Edge

	// adj caches the materialized per-node edge and neighbor lists the
	// accessors below hand out. Built lazily on first query, discarded
	// by AddNode/AddEdge. An atomic pointer because read-only graphs are
	// queried from concurrent goroutines (any two sessions scheduling
	// the same graph); racing builders compute identical caches and
	// the losing store is merely wasted work.
	adj atomic.Pointer[adjacency]

	// scc caches the Tarjan decomposition under the same contract as
	// adj: lazy, invalidated by mutation, safe to rebuild racily.
	scc atomic.Pointer[sccCache]

	// nodeArena chunk-allocates the Node values Nodes points into, so
	// building a graph does not pay one allocation per operation. A
	// chunk is abandoned (not copied) when full, which keeps previously
	// returned *Node pointers valid.
	nodeArena []Node
}

// sccCache holds the component decomposition shared by every caller of
// StronglyConnectedComponents/NonTrivialSCCs.
type sccCache struct {
	all        []*SCC
	nonTrivial []*SCC
}

// adjacency holds the flat adjacency caches: per-node edge lists and
// distinct sorted neighbor lists, all sub-slices of four shared arrays.
type adjacency struct {
	out, in      [][]Edge
	succs, preds [][]int
}

// adjacencyCache returns the cache, building it on first use.
func (g *Graph) adjacencyCache() *adjacency {
	if a := g.adj.Load(); a != nil {
		return a
	}
	n := len(g.Nodes)
	ne := len(g.Edges)
	a := &adjacency{
		out:   make([][]Edge, n),
		in:    make([][]Edge, n),
		succs: make([][]int, n),
		preds: make([][]int, n),
	}
	// Counting sort of the edge list into per-node out/in runs of two
	// flat arrays, preserving insertion order within each node.
	outOff := make([]int, n+1)
	inOff := make([]int, n+1)
	for _, e := range g.Edges {
		outOff[e.From+1]++
		inOff[e.To+1]++
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
		inOff[i+1] += inOff[i]
	}
	flatOut := make([]Edge, ne)
	flatIn := make([]Edge, ne)
	ocur := make([]int, 2*n)
	icur := ocur[n:]
	copy(ocur[:n], outOff[:n])
	copy(icur, inOff[:n])
	for _, e := range g.Edges {
		flatOut[ocur[e.From]] = e
		ocur[e.From]++
		flatIn[icur[e.To]] = e
		icur[e.To]++
	}
	// Distinct-neighbor dedup via stamps: seen[v] == id marks v as a
	// recorded successor of id, id+n as a recorded predecessor. The
	// flats are capped at NumEdges, so the appends never reallocate and
	// the capped sub-slices stay valid.
	succFlat := make([]int, 0, ne)
	predFlat := make([]int, 0, ne)
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	for id := 0; id < n; id++ {
		a.out[id] = flatOut[outOff[id]:outOff[id+1]:outOff[id+1]]
		a.in[id] = flatIn[inOff[id]:inOff[id+1]:inOff[id+1]]

		ss := len(succFlat)
		for _, e := range a.out[id] {
			if seen[e.To] != id {
				seen[e.To] = id
				succFlat = append(succFlat, e.To)
			}
		}
		sort.Ints(succFlat[ss:])
		a.succs[id] = succFlat[ss:len(succFlat):len(succFlat)]

		ps := len(predFlat)
		for _, e := range a.in[id] {
			if seen[e.From] != id+n {
				seen[e.From] = id + n
				predFlat = append(predFlat, e.From)
			}
		}
		sort.Ints(predFlat[ps:])
		a.preds[id] = predFlat[ps:len(predFlat):len(predFlat)]
	}
	g.adj.Store(a)
	return a
}

// NewGraph returns an empty graph with capacity hints.
func NewGraph(nodeHint, edgeHint int) *Graph {
	return &Graph{
		Nodes:     make([]*Node, 0, nodeHint),
		Edges:     make([]Edge, 0, edgeHint),
		nodeArena: make([]Node, 0, nodeHint),
	}
}

// AddNode appends an operation of the given kind and returns its ID.
func (g *Graph) AddNode(kind OpKind, name string) int {
	id := len(g.Nodes)
	if len(g.nodeArena) == cap(g.nodeArena) {
		c := 2 * cap(g.nodeArena)
		if c < 16 {
			c = 16
		}
		g.nodeArena = make([]Node, 0, c)
	}
	g.nodeArena = append(g.nodeArena, Node{ID: id, Kind: kind, Name: name})
	g.Nodes = append(g.Nodes, &g.nodeArena[len(g.nodeArena)-1])
	g.adj.Store(nil)
	g.scc.Store(nil)
	return id
}

// AddEdge records a dependence from -> to with the given iteration
// distance. It panics on out-of-range IDs or negative distance, which
// are programming errors, not runtime conditions.
func (g *Graph) AddEdge(from, to, distance int) {
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
		panic(fmt.Sprintf("ddg: edge (%d,%d) references missing node (have %d nodes)", from, to, len(g.Nodes)))
	}
	if distance < 0 {
		panic(fmt.Sprintf("ddg: edge (%d,%d) has negative distance %d", from, to, distance))
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Distance: distance})
	g.adj.Store(nil)
	g.scc.Store(nil)
}

// NumNodes returns the number of operations.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the number of dependences.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// OutEdges returns the dependences produced by node id.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) OutEdges(id int) []Edge {
	return g.adjacencyCache().out[id]
}

// InEdges returns the dependences consumed by node id.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) InEdges(id int) []Edge {
	return g.adjacencyCache().in[id]
}

// Successors returns the distinct successor node IDs of id, sorted.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) Successors(id int) []int {
	return g.adjacencyCache().succs[id]
}

// Predecessors returns the distinct predecessor node IDs of id, sorted.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) Predecessors(id int) []int {
	return g.adjacencyCache().preds[id]
}

// Clone returns a deep copy of the graph. Annotated passes (cluster
// assignment) clone the input so callers keep an unmodified original.
func (g *Graph) Clone() *Graph {
	c := NewGraph(len(g.Nodes), len(g.Edges))
	for _, n := range g.Nodes {
		c.AddNode(n.Kind, n.Name)
	}
	for _, e := range g.Edges {
		c.AddEdge(e.From, e.To, e.Distance)
	}
	return c
}

// Structural diagnostic codes reported by Lint. Package lint layers
// additional DDG-prefixed advisory codes on top of these.
const (
	CodeBadNode      = "DDG001" // nil node record or mismatched ID
	CodeBadKind      = "DDG002" // operation kind out of range
	CodeDanglingEdge = "DDG003" // edge endpoint references a missing node
	CodeNegativeDist = "DDG004" // edge with negative iteration distance
	CodeZeroSelfEdge = "DDG005" // self-edge with distance 0
	CodeZeroCycle    = "DDG006" // zero-distance dependence cycle
)

// Lint checks every structural invariant and returns all violations as
// diagnostics, not just the first. It trusts nothing about the graph:
// adjacency is rebuilt from the Edges slice, so graphs assembled by
// struct literal (bypassing AddNode/AddEdge) are checked correctly,
// and the cycle search runs only over edges whose endpoints exist.
func (g *Graph) Lint() []diag.Diagnostic {
	var r diag.Reporter
	for i, n := range g.Nodes {
		if n == nil {
			r.Errorf(CodeBadNode, fmt.Sprintf("node %d", i), "node %d is nil", i)
			continue
		}
		if n.ID != i {
			r.Errorf(CodeBadNode, fmt.Sprintf("node %d", i), "node %d has mismatched ID %d", i, n.ID)
		}
		if n.Kind < 0 || int(n.Kind) >= NumOpKinds {
			r.Errorf(CodeBadKind, fmt.Sprintf("node %d", i), "node %d has invalid kind %d", i, int(n.Kind))
		}
	}
	for i, e := range g.Edges {
		// Lint runs on the hot scheduling path; format the subject only
		// for edges that actually have findings.
		subject := func() string { return fmt.Sprintf("edge %d", i) }
		if e.From < 0 || e.From >= len(g.Nodes) {
			r.Errorf(CodeDanglingEdge, subject(), "edge %d has invalid source %d (have %d nodes)", i, e.From, len(g.Nodes))
		}
		if e.To < 0 || e.To >= len(g.Nodes) {
			r.Errorf(CodeDanglingEdge, subject(), "edge %d has invalid sink %d (have %d nodes)", i, e.To, len(g.Nodes))
		}
		if e.Distance < 0 {
			r.Errorf(CodeNegativeDist, subject(), "edge %d has negative distance %d", i, e.Distance)
		}
		if e.From == e.To && e.From >= 0 && e.From < len(g.Nodes) && e.Distance == 0 {
			r.Errorf(CodeZeroSelfEdge, subject(),
				"edge %d is a self-dependence of node %d at distance 0 (an operation cannot precede itself within one iteration)",
				i, e.From)
		}
	}
	// A zero-distance cycle is not schedulable at any II: every op in the
	// cycle would have to precede itself within one iteration. (A
	// distance-0 self-edge is the one-node case, reported above with its
	// own code and excluded here.)
	if cyc := g.zeroDistanceCycle(); cyc != nil && len(cyc) > 1 {
		r.Report(diag.Diagnostic{
			Code:     CodeZeroCycle,
			Severity: diag.Error,
			Subject:  fmt.Sprintf("nodes %v", cyc),
			Message:  fmt.Sprintf("zero-distance dependence cycle through nodes %v", cyc),
			Fix:      "give at least one edge of the cycle a positive iteration distance, or break the recurrence",
		})
	}
	return r.Diagnostics()
}

// Validate checks structural invariants. It returns nil for a
// well-formed graph, or a *diag.List carrying every violation (not
// just the first), whose Error string leads with the first one.
func (g *Graph) Validate() error {
	diags := g.Lint()
	if err := diag.AsError(diags); err != nil {
		return fmt.Errorf("ddg: %w", err)
	}
	return nil
}

// zeroDistanceCycle returns the node IDs of some cycle consisting only
// of distance-0 edges, or nil if none exists. Edges with out-of-range
// endpoints are skipped, so it is safe on graphs Lint has found other
// problems in.
func (g *Graph) zeroDistanceCycle() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	// Rebuild adjacency from Edges: literal-constructed graphs may have
	// stale or missing succ slices.
	succ := make([][]int, len(g.Nodes))
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			continue
		}
		succ[e.From] = append(succ[e.From], i)
	}
	color := make([]int, len(g.Nodes))
	parent := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, ei := range succ[u] {
			e := g.Edges[ei]
			if e.Distance != 0 {
				continue
			}
			v := e.To
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u -> v along distance-0 edges.
				cycle = []int{v}
				for w := u; w != v && w != -1; w = parent[w] {
					cycle = append(cycle, w)
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for i := range g.Nodes {
		if color[i] == white && dfs(i) {
			return cycle
		}
	}
	return nil
}

// KindCounts returns how many nodes of each kind the graph contains.
func (g *Graph) KindCounts() [NumOpKinds]int {
	var counts [NumOpKinds]int
	for _, n := range g.Nodes {
		counts[n.Kind]++
	}
	return counts
}

// String renders a compact multi-line description, useful in tests and
// the schedview tool.
func (g *Graph) String() string {
	s := fmt.Sprintf("ddg: %d nodes, %d edges\n", len(g.Nodes), len(g.Edges))
	for _, n := range g.Nodes {
		s += fmt.Sprintf("  n%d %s", n.ID, n.Kind)
		if n.Name != "" {
			s += " (" + n.Name + ")"
		}
		s += "\n"
	}
	for _, e := range g.Edges {
		s += fmt.Sprintf("  n%d -> n%d dist=%d\n", e.From, e.To, e.Distance)
	}
	return s
}
