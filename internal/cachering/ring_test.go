package cachering

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("0123456789abcdef-key-%d", i)
	}
	return out
}

func TestOwnerDeterministicAndOrderIndependent(t *testing.T) {
	a := New(7, []string{"w0", "w1", "w2"}, 64)
	b := New(7, []string{"w2", "w0", "w1", "w0"}, 64) // shuffled + duplicate
	for _, k := range keys(200) {
		oa, ok := a.Owner(k)
		ob, _ := b.Owner(k)
		if !ok || oa != ob {
			t.Fatalf("owner(%q) = %q vs %q", k, oa, ob)
		}
	}
	if a.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", a.Epoch())
	}
}

func TestDistributionIsRoughlyFair(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3"}
	r := New(1, ids, 0) // default vnodes
	counts := map[string]int{}
	const n = 4000
	for _, k := range keys(n) {
		o, _ := r.Owner(k)
		counts[o]++
	}
	for _, id := range ids {
		share := float64(counts[id]) / n
		if share < 0.10 || share > 0.45 {
			t.Errorf("node %s owns %.1f%% of keys, outside [10%%, 45%%]", id, share*100)
		}
	}
}

// fallback is the first node clockwise from key's position on r other
// than skip: where key goes when skip leaves the ring.
func fallback(r *Ring, key, skip string) string {
	start := r.succ(hash64("key\x00" + key))
	for i := range r.points {
		if id := r.ids[r.points[(start+i)%len(r.points)].node]; id != skip {
			return id
		}
	}
	return ""
}

// TestRemovalOnlyRemapsTheLostArc is the property the cache tier is
// built on: removing one node moves only the keys it owned, and every
// remapped key lands on that key's previous first fallback.
func TestRemovalOnlyRemapsTheLostArc(t *testing.T) {
	full := New(1, []string{"w0", "w1", "w2"}, 64)
	reduced := New(2, []string{"w0", "w2"}, 64)
	moved := 0
	for _, k := range keys(1000) {
		before, _ := full.Owner(k)
		after, _ := reduced.Owner(k)
		if before != "w1" {
			if after != before {
				t.Fatalf("key %q moved %q -> %q though its owner survived", k, before, after)
			}
			continue
		}
		moved++
		if want := fallback(full, k, "w1"); after != want {
			t.Fatalf("key %q remapped to %q, want previous fallback %q", k, after, want)
		}
	}
	if moved < 200 || moved > 500 {
		t.Errorf("%d of 1000 keys owned by the removed node, outside [200, 500]", moved)
	}
}

func TestEmptyRing(t *testing.T) {
	r := New(0, nil, 8)
	if n := len(r.Nodes()); n != 0 {
		t.Fatalf("nil-ID ring has %d nodes", n)
	}
	if _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring reported an owner")
	}
}
