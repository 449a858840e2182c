package mrt

import "clustersched/internal/ddg"

// Op describes one schedulable operation to the unified resource-probe
// API. Both table fidelities consume the same description: the
// cluster-assignment phase probes a Capacity table (ignoring cycles),
// the modulo schedulers probe a Cycle table at concrete cycles.
//
// For ordinary operations Kind is the operation kind and Cluster the
// executing cluster; Targets must be nil. For copies Kind is
// ddg.OpCopy, Cluster the source cluster (whose read port the copy
// consumes), and Targets the destination clusters — exactly one,
// adjacent to Cluster, on point-to-point machines.
//
// Targets may alias a caller-owned buffer: the tables copy what they
// keep, so the caller is free to reuse the buffer after the call
// returns.
type Op struct {
	Node    int
	Kind    ddg.OpKind
	Cluster int
	Targets []int
}

// OpAt builds the Op describing an ordinary (non-copy) operation.
//
//schedvet:alloc-free
func OpAt(node, cluster int, kind ddg.OpKind) Op {
	return Op{Node: node, Kind: kind, Cluster: cluster}
}

// CopyAt builds the Op describing a copy sourced on cluster src.
//
//schedvet:alloc-free
func CopyAt(node, src int, targets []int) Op {
	return Op{Node: node, Kind: ddg.OpCopy, Cluster: src, Targets: targets}
}
