package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/loopgen"
	"clustersched/internal/obs"
)

// searchFingerprint is the SHA-256 digest TestSearchFingerprint
// computes. It pins every outcome of the II search on a suite that
// escalates; a change to the search that is meant to be a pure
// refactor must leave it untouched.
const searchFingerprint = "67c6a9fe241117f728d760a203689bb75d16eb43cb339f298ea04be58b02fd36"

// TestSearchFingerprint hashes, for every loop of a 200-loop synthetic
// suite on the narrow search machines under both schedulers, the II
// and MII, the per-phase failure counts, the cluster assignment (with
// copy targets), the schedule's cycles, and every timing-free search
// counter, and compares the digest with searchFingerprint.
func TestSearchFingerprint(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 33, Count: 200})
	h := sha256.New()
	var agg obs.Stats
	for _, m := range searchMachines() {
		for _, sc := range []Scheduler{IMS, SMS} {
			s := NewSession(m, Options{
				Assign:       assign.Options{Variant: assign.HeuristicIterative},
				Scheduler:    sc,
				CollectStats: true,
			})
			for _, g := range loops {
				out, err := s.Schedule(context.Background(), g)
				if err != nil {
					h.Write([]byte(err.Error()))
					continue
				}
				agg.Add(out.Stats)
				hashOutcome(h, out)
			}
		}
	}
	if agg.IIWarmStarts == 0 {
		t.Fatal("suite never warm-started; the fingerprint would not cover escalation")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchFingerprint {
		t.Fatalf("search fingerprint %s, want %s", got, searchFingerprint)
	}
}

// hashOutcome feeds the deterministic part of out into h, field by
// field, so adding or removing an unrelated Stats field does not move
// the digest.
func hashOutcome(h hash.Hash, out *Outcome) {
	ints := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
			h.Write(b[:])
		}
	}
	ints(out.II, out.MII, out.AssignFailures, out.SchedFailures)
	ints(len(out.Assignment.ClusterOf))
	ints(out.Assignment.ClusterOf...)
	ints(len(out.Assignment.CopyTargets))
	for _, ts := range out.Assignment.CopyTargets {
		ints(len(ts))
		ints(ts...)
	}
	ints(len(out.Schedule.CycleOf))
	ints(out.Schedule.CycleOf...)
	st := out.Stats
	ints(st.IICandidates, st.AssignCommits, st.ForcePlacements, st.Evictions,
		st.PCRRejections, st.AssignBudgetExhausted, st.SchedBudgetExhausted,
		st.AssignRejects, st.SchedRejects, st.SchedDisplacements,
		st.AssignDeltas, st.AssignFullDerives, st.IIWarmStarts, st.IIWarmFallbacks)
}
