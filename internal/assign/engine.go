package assign

import (
	"fmt"

	"clustersched/internal/machine"
	"clustersched/internal/mrt"
)

// engine is the incremental counterpart of derive(): it maintains the
// capacity table, the copy structure, and the per-cluster PCR/PIC
// aggregates as a function of the cluster vector, updating all of them
// in O(degree) when a single node is assigned instead of replaying the
// whole graph. Unassignment (eviction, the per-II reset) rewrites the
// cluster vector and resynchronizes with one rebuild.
//
// The central fact the engine exploits is that the copy structure is a
// pure, deterministic function of the cluster vector: derive() visits
// producers in ID order with target clusters ascending, and on
// point-to-point machines routes over a fixed BFS tree per source
// cluster (machine.Path is deterministic, so every cluster reached
// from a given source is always reached over the same tree edge).
// Changing node n's assignment therefore only changes the records of
// producers in {n} ∪ Predecessors(n) — everyone else's remote-consumer
// set is untouched — and a producer's record set only ever grows when
// a consumer becomes assigned (hop sets are unions over target paths).
// That monotonicity makes the remove-then-replace delta of apply()
// component-wise non-negative, so the incremental placement succeeds
// exactly when a scratch derive of the new vector would: feasibility,
// copy counts, and record contents are byte-identical to the oracle,
// which the differential tests assert.
//
// Invariants between calls (checked by the engine invariant test):
//
//	cap          == capacity table derive() would build
//	recs/tgts[p] == derive()'s records for producer p, in order
//	copies       == Σ len(recs[p])
//	usc[n]       == distinct successors of n still unassigned
//	contrib[n]   == n's term of pcr(): min(upperBound(rc), usc[n]),
//	                0 when n is unassigned
//	pcrSum[cl]   == pcr(cl)  (sum of contrib over nodes on cl)
//	inRef[cl][q] == assigned nodes on cl having q as predecessor
//	picCnt[cl]   == pic(cl)  (unassigned q with inRef[cl][q] > 0)
type engine struct {
	a   *assigner
	cap *mrt.Capacity

	// capSave holds the counter snapshot taken at the top of apply and
	// probe. An apply that fails restores cap wholesale from it with
	// one fixed-size CopyFrom: the only rollback ever needed is "back
	// to the start of this apply", so no per-commit undo log is kept.
	capSave *mrt.Capacity

	copies  int
	recs    [][]eRecord
	tgts    [][]int   // backing store for record targets, per producer
	recBack []eRecord // pre-sized backing recs[p] sub-slices are carved from

	usc     []int
	contrib []int
	pcrSum  []int
	inRef   []int // [cl*numNodes+q]
	picCnt  []int

	// Epoch-stamped scratch (no clearing between uses).
	one     [1]int // single-target buffer for link-hop commits
	tgtMark []int  // per cluster: computeTargets dedup
	tEpoch  int
	avMark  []int // per cluster: copy-routing availability
	avEpoch int
	tBuf    []int // computeTargets result, capacity NumClusters
}

// eRecord is one reserved copy operation of a producer: sourced on
// cluster src, writing to the record's targets, which live at
// tgts[p][off:off+n]. link is -1 on broadcast machines.
type eRecord struct {
	src  int
	link int
	off  int
	n    int
}

// newEngine allocates the machine-sized half of an engine — the
// capacity table and its rollback snapshot, both II-retargetable in
// place. The per-graph arrays are carved from the assigner's slab by
// bindSlab, and the caller (assigner.bind) runs the initial rebuild.
func newEngine(a *assigner) *engine {
	return &engine{
		a:       a,
		cap:     mrt.NewCapacity(a.m, a.ii),
		capSave: mrt.NewCapacity(a.m, a.ii),
	}
}

// bindSlab re-carves the engine's per-graph arrays for a graph of v
// nodes on a machine of c clusters, taking slices from the assigner's
// slab. Mark buffers are zeroed and their epochs reset (the
// slab may hold stale stamps a fresh counter would collide with);
// everything else is (re)initialized by the rebuild that follows.
//
// The record stores are pre-sized to their worst case so the record
// walk never allocates, even cold: a producer reserves at most c-1
// copy records (point-to-point routing adds one per newly reached
// cluster) holding at most c-1 target entries in total (a broadcast
// machine makes one record carrying every target). Each producer gets
// a fixed-capacity three-index sub-slice of one backing store, so an
// append can never bleed into a neighbour's region — if the bound were
// ever exceeded, append would fall back to a fresh backing array,
// trading the no-alloc property for unchanged correctness.
func (e *engine) bindSlab(v, c int) {
	a := e.a
	e.usc = a.carve(v)
	e.contrib = a.carve(v)
	e.pcrSum = a.carve(c)
	e.inRef = a.carve(c * v)
	e.picCnt = a.carve(c)
	e.tgtMark = a.carve(c)
	e.avMark = a.carve(c)
	for i := 0; i < c; i++ {
		e.tgtMark[i] = 0
		e.avMark[i] = 0
	}
	e.tEpoch = 0
	e.avEpoch = 0
	e.tBuf = a.carve(c)[:0]

	cm1 := c - 1
	tback := a.carve(v * cm1)
	if cap(e.recs) < v || oversized(cap(e.recs), v) {
		e.recs = make([][]eRecord, v)
		e.tgts = make([][]int, v)
	}
	e.recs = e.recs[:v]
	e.tgts = e.tgts[:v]
	e.recBack = ensureRecs(e.recBack, v*cm1)
	for p := 0; p < v; p++ {
		e.tgts[p] = tback[p*cm1 : p*cm1 : (p+1)*cm1]
		e.recs[p] = e.recBack[p*cm1 : p*cm1 : (p+1)*cm1]
	}
}

// ensureRecs is the eRecord analogue of ensureInts.
func ensureRecs(buf []eRecord, n int) []eRecord {
	if cap(buf) < n || oversized(cap(buf), n) {
		return make([]eRecord, n)
	}
	return buf[:n]
}

// reset returns the engine to its freshly built state at a new II: the
// capacity table is re-sized in place and every derived structure
// recomputed for the (empty) cluster vector, which the caller must
// have cleared first. Counted as a full derive, exactly like the
// rebuild newEngine performs.
//
//schedvet:alloc-free callees
func (e *engine) reset(ii int) {
	e.cap.ResetII(ii)
	if !e.rebuild() {
		panic("assign: engine rebuild failed on empty assignment")
	}
}

// targets returns record r's target clusters (aliasing the engine's
// backing store).
func (e *engine) targets(p int, r eRecord) []int { return e.tgts[p][r.off : r.off+r.n] }

// apply tentatively assigns node n to cluster cl, updating capacity,
// copy records, and aggregates. It reports false — leaving every
// structure exactly as before — when the operation or its implied
// copies do not fit. Cost is O(deg(n) + Σ deg(affected producers)).
//
//schedvet:alloc-free
func (e *engine) apply(n, cl int) bool {
	a := e.a
	e.capSave.CopyFrom(e.cap)
	if !e.cap.CommitOp(mrt.OpAt(n, cl, a.g.Nodes[n].Kind), 0) {
		return false
	}
	a.cluster[n] = cl
	saved := e.copies
	ok := e.replaceCopies(n)
	if ok {
		for _, q := range a.predsOf(n) {
			if q == n || a.cluster[q] < 0 {
				continue
			}
			if !e.replaceCopies(q) {
				ok = false
				break
			}
		}
	}
	if !ok {
		// Undo: the snapshot restores every capacity counter to its
		// state at the top of apply (including the op itself), and the
		// records of the affected producers are recomputed from the
		// restored vector — they are a pure function of it.
		a.cluster[n] = -1
		e.cap.CopyFrom(e.capSave)
		e.copies = saved
		e.fillRecords(n)
		for _, q := range a.predsOf(n) {
			if q != n && a.cluster[q] >= 0 {
				e.fillRecords(q)
			}
		}
		return false
	}

	// Aggregates. Order matters for self-edges: n first stops being an
	// unassigned producer (pre-assignment refs), then contributes its
	// own predecessor refs with cluster[n] already set, so a self-loop
	// never re-counts n as unassigned.
	v := a.g.NumNodes()
	for c := 0; c < a.m.NumClusters(); c++ {
		if e.inRef[c*v+n] > 0 {
			e.picCnt[c]--
		}
	}
	for _, q := range a.predsOf(n) {
		idx := cl*v + q
		e.inRef[idx]++
		if e.inRef[idx] == 1 && a.cluster[q] < 0 {
			e.picCnt[cl]++
		}
		e.usc[q]--
	}
	for _, q := range a.predsOf(n) {
		if q != n && a.cluster[q] >= 0 {
			e.refreshContrib(q)
		}
	}
	e.refreshContrib(n)
	return true
}

// probeResult carries the selection metrics of one tentative
// assignment, read out of the committed capacity state before probe
// restores it.
type probeResult struct {
	feasible  bool
	newCopies int
	pcrSum    int // pcr(cl) after the assignment
	picCnt    int // pic(cl) after the assignment
	mrc       int // MaxReservableCopies(cl) after the assignment
	mri       int // MaxReservableIncoming(cl) after the assignment
	freeSlots int // FreeSlots(cl) after the assignment
}

// probe evaluates assigning node n (unassigned) to cluster cl without
// mutating the record structures: it issues exactly the commit/release
// sequence apply would (so feasibility is byte-identical), reads the
// selection metrics, computes the aggregate deltas arithmetically, and
// restores the capacity table from the snapshot. A probe leaves the
// engine untouched: evaluate never derives an affected producer's
// records only to revert them.
//
//schedvet:alloc-free
func (e *engine) probe(n, cl int) probeResult {
	a := e.a
	v := a.g.NumNodes()
	e.capSave.CopyFrom(e.cap)
	if !e.cap.CommitOp(mrt.OpAt(n, cl, a.g.Nodes[n].Kind), 0) {
		return probeResult{}
	}
	a.cluster[n] = cl

	// n's records on the new cluster (recs[n] is empty in practice: n
	// is unassigned), then every assigned predecessor's, in apply's
	// commit order so a reservation fails at the identical point.
	delta := 0
	for _, r := range e.recs[n] {
		e.cap.ReleaseOp(mrt.CopyAt(n, r.src, e.targets(n, r)))
	}
	nNew := e.walkProbe(n)
	ok := nNew >= 0
	pcrSum := e.pcrSum[cl]
	selfPred := false
	if ok {
		delta = nNew - len(e.recs[n])
		for _, q := range a.predsOf(n) {
			if q == n {
				selfPred = true
				continue
			}
			if a.cluster[q] < 0 {
				continue
			}
			for _, r := range e.recs[q] {
				e.cap.ReleaseOp(mrt.CopyAt(q, r.src, e.targets(q, r)))
			}
			qNew := e.walkProbe(q)
			if qNew < 0 {
				ok = false
				break
			}
			delta += qNew - len(e.recs[q])
			if a.cluster[q] == cl {
				// q's PCR term with one fewer unassigned successor
				// and its re-derived record count.
				usc := e.usc[q] - 1
				nc := 0
				if usc > 0 {
					nc = a.upperBound(qNew)
					if usc < nc {
						nc = usc
					}
				}
				pcrSum += nc - e.contrib[q]
			}
		}
	}
	if !ok {
		a.cluster[n] = -1
		e.cap.CopyFrom(e.capSave)
		return probeResult{}
	}

	// n's own PCR term joins cl (its contrib was 0 while unassigned).
	usc := e.usc[n]
	if selfPred {
		usc--
	}
	if usc > 0 {
		nc := a.upperBound(nNew)
		if usc < nc {
			nc = usc
		}
		pcrSum += nc
	}
	picCnt := e.picCnt[cl]
	if e.inRef[cl*v+n] > 0 {
		picCnt--
	}
	for _, q := range a.predsOf(n) {
		if e.inRef[cl*v+q] == 0 && a.cluster[q] < 0 {
			picCnt++
		}
	}

	r := probeResult{
		feasible:  true,
		newCopies: delta,
		pcrSum:    pcrSum,
		picCnt:    picCnt,
		mrc:       e.cap.MaxReservableCopies(cl),
		mri:       e.cap.MaxReservableIncoming(cl),
		freeSlots: e.cap.FreeSlots(cl),
	}
	a.cluster[n] = -1
	e.cap.CopyFrom(e.capSave)
	return r
}

// walkProbe is walk(p, true) without the record appends: it charges the
// capacity table through the identical commit sequence and returns the
// number of records the real walk would produce, or -1 when a
// reservation fails.
//
//schedvet:alloc-free
func (e *engine) walkProbe(p int) int {
	a := e.a
	src := a.cluster[p]
	targets := e.computeTargets(p)
	if len(targets) == 0 {
		return 0
	}
	if a.m.Network == machine.Broadcast {
		if !e.cap.CommitOp(mrt.CopyAt(p, src, targets), 0) {
			return -1
		}
		return 1
	}
	e.avEpoch++
	e.avMark[src] = e.avEpoch
	added := 0
	for _, t := range targets {
		if e.avMark[t] == e.avEpoch {
			continue
		}
		path := a.pathOf(src, t)
		if path == nil {
			return -1
		}
		for i := 0; i+1 < len(path); i++ {
			u, w := path[i], path[i+1]
			if e.avMark[w] == e.avEpoch {
				continue
			}
			e.one[0] = w
			if !e.cap.CommitOp(mrt.CopyAt(p, u, e.one[:]), 0) {
				return -1
			}
			e.avMark[w] = e.avEpoch
			added++
		}
	}
	return added
}

// replaceCopies re-derives producer p's copy records after one of its
// consumers changed cluster: remove the old reservations, place the
// new set. Reports false when the new set does not fit (apply then
// restores the capacity table from capSave).
//
//schedvet:alloc-free
func (e *engine) replaceCopies(p int) bool {
	e.removeCopies(p)
	added := e.walk(p, true)
	if added < 0 {
		return false
	}
	e.copies += added
	return true
}

// removeCopies releases and forgets all of p's copy records.
//
//schedvet:alloc-free
func (e *engine) removeCopies(p int) {
	if len(e.recs[p]) == 0 {
		return
	}
	for _, r := range e.recs[p] {
		e.cap.ReleaseOp(mrt.CopyAt(p, r.src, e.targets(p, r)))
	}
	e.copies -= len(e.recs[p])
	e.recs[p] = e.recs[p][:0]
	e.tgts[p] = e.tgts[p][:0]
}

// fillRecords recomputes p's records from the cluster vector without
// touching the capacity table, used to restore after a rollback.
//
//schedvet:alloc-free
func (e *engine) fillRecords(p int) {
	e.recs[p] = e.recs[p][:0]
	e.tgts[p] = e.tgts[p][:0]
	if e.a.cluster[p] < 0 {
		return
	}
	if e.walk(p, false) < 0 {
		panic("assign: engine record restore failed on consistent state")
	}
}

// walk derives p's copy records exactly as derive() would — targets
// ascending, routed over the precomputed BFS paths — appending to
// recs[p]/tgts[p], which must be empty. With place set it also charges
// the capacity table and reports -1 when a reservation fails (or a
// target is unreachable); otherwise it returns the number of records
// appended. The caller is responsible for adding that to e.copies.
//
//schedvet:alloc-free
func (e *engine) walk(p int, place bool) int {
	a := e.a
	src := a.cluster[p]
	targets := e.computeTargets(p)
	if len(targets) == 0 {
		return 0
	}
	if a.m.Network == machine.Broadcast {
		if place && !e.cap.CommitOp(mrt.CopyAt(p, src, targets), 0) {
			return -1
		}
		off := len(e.tgts[p])
		e.tgts[p] = append(e.tgts[p], targets...)
		e.recs[p] = append(e.recs[p], eRecord{src: src, link: -1, off: off, n: len(targets)})
		return 1
	}
	e.avEpoch++
	e.avMark[src] = e.avEpoch
	added := 0
	for _, t := range targets {
		if e.avMark[t] == e.avEpoch {
			continue
		}
		path := a.pathOf(src, t)
		if path == nil {
			return -1
		}
		for i := 0; i+1 < len(path); i++ {
			u, w := path[i], path[i+1]
			if e.avMark[w] == e.avEpoch {
				continue
			}
			li := a.linkOf(u, w)
			e.one[0] = w
			if place && !e.cap.CommitOp(mrt.CopyAt(p, u, e.one[:]), 0) {
				return -1
			}
			e.avMark[w] = e.avEpoch
			off := len(e.tgts[p])
			e.tgts[p] = append(e.tgts[p], w)
			e.recs[p] = append(e.recs[p], eRecord{src: u, link: li, off: off, n: 1})
			added++
		}
	}
	return added
}

// computeTargets returns the distinct clusters (ascending) holding
// assigned consumers of p, in a buffer valid until the next call.
//
//schedvet:alloc-free
func (e *engine) computeTargets(p int) []int {
	a := e.a
	home := a.cluster[p]
	e.tEpoch++
	buf := e.tBuf[:0]
	for _, s := range a.succsOf(p) {
		c := a.cluster[s]
		if c < 0 || c == home || e.tgtMark[c] == e.tEpoch {
			continue
		}
		e.tgtMark[c] = e.tEpoch
		buf = append(buf, c)
	}
	insertionSort(buf)
	e.tBuf = buf
	return buf
}

// refreshContrib recomputes assigned node v's PCR term after its copy
// count or unassigned-successor count changed, folding the difference
// into its cluster's aggregate.
//
//schedvet:alloc-free
func (e *engine) refreshContrib(v int) {
	cl := e.a.cluster[v]
	if cl < 0 {
		panic(fmt.Sprintf("assign: refreshContrib on unassigned node %d", v))
	}
	nc := 0
	if e.usc[v] > 0 {
		nc = e.a.upperBound(len(e.recs[v]))
		if e.usc[v] < nc {
			nc = e.usc[v]
		}
	}
	e.pcrSum[cl] += nc - e.contrib[v]
	e.contrib[v] = nc
}

// rebuild recomputes everything from the cluster vector, the engine's
// own full derive. It runs at construction and after forced placement
// rewrites the vector behind the engine's back, and reports false when
// the vector is infeasible (callers only invoke it on consistent
// state). Counted as a full derive by the work-saved counters.
func (e *engine) rebuild() bool {
	a := e.a
	a.opts.Trace.AssignFullDerive()
	e.cap.Reset()
	e.copies = 0
	for p := range e.recs {
		e.recs[p] = e.recs[p][:0]
		e.tgts[p] = e.tgts[p][:0]
	}
	v := a.g.NumNodes()
	c := a.m.NumClusters()
	for n := 0; n < v; n++ {
		if cl := a.cluster[n]; cl >= 0 {
			if !e.cap.CommitOp(mrt.OpAt(n, cl, a.g.Nodes[n].Kind), 0) {
				return false
			}
		}
	}
	for p := 0; p < v; p++ {
		if a.cluster[p] < 0 {
			continue
		}
		added := e.walk(p, true)
		if added < 0 {
			return false
		}
		e.copies += added
	}
	for i := range e.inRef {
		e.inRef[i] = 0
	}
	for i := 0; i < c; i++ {
		e.pcrSum[i], e.picCnt[i] = 0, 0
	}
	for n := 0; n < v; n++ {
		e.usc[n], e.contrib[n] = 0, 0
	}
	for n := 0; n < v; n++ {
		for _, s := range a.succsOf(n) {
			if a.cluster[s] < 0 {
				e.usc[n]++
			}
		}
		if cl := a.cluster[n]; cl >= 0 {
			for _, q := range a.predsOf(n) {
				e.inRef[cl*v+q]++
			}
		}
	}
	for i := 0; i < c; i++ {
		for q := 0; q < v; q++ {
			if a.cluster[q] < 0 && e.inRef[i*v+q] > 0 {
				e.picCnt[i]++
			}
		}
	}
	for n := 0; n < v; n++ {
		if a.cluster[n] >= 0 {
			e.refreshContrib(n)
		}
	}
	return true
}
