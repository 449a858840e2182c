package cache

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

func testGraph() *ddg.Graph {
	g := ddg.NewGraph(4, 4)
	a := g.AddNode(ddg.OpLoad, "a[i]")
	b := g.AddNode(ddg.OpLoad, "b[i]")
	m := g.AddNode(ddg.OpFMul, "")
	s := g.AddNode(ddg.OpFAdd, "s")
	g.AddEdge(a, m, 0)
	g.AddEdge(b, m, 0)
	g.AddEdge(m, s, 0)
	g.AddEdge(s, s, 1)
	return g
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	g := testGraph()
	m := machine.NewBusedGP(2, 2, 1)

	base := Key(g, m, "heuristic-iterative", "ims")
	if again := Key(testGraph(), machine.NewBusedGP(2, 2, 1), "heuristic-iterative", "ims"); again != base {
		t.Fatalf("identical request hashed differently:\n%s\n%s", base, again)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}

	distinct := map[string]string{"base": base}
	add := func(label, key string) {
		for prev, k := range distinct {
			if k == key {
				t.Errorf("%s collides with %s", label, prev)
			}
		}
		distinct[label] = key
	}

	g2 := testGraph()
	g2.Nodes[0].Kind = ddg.OpStore
	add("node kind changed", Key(g2, m, "heuristic-iterative", "ims"))

	g3 := testGraph()
	g3.Nodes[0].Name = "c[i]"
	add("node name changed", Key(g3, m, "heuristic-iterative", "ims"))

	g4 := testGraph()
	g4.Edges[3].Distance = 2
	add("edge distance changed", Key(g4, m, "heuristic-iterative", "ims"))

	g5 := testGraph()
	g5.AddEdge(0, 3, 1)
	add("edge added", Key(g5, m, "heuristic-iterative", "ims"))

	add("machine ports changed", Key(g, machine.NewBusedGP(2, 2, 2), "heuristic-iterative", "ims"))
	add("machine buses changed", Key(g, machine.NewBusedGP(2, 1, 1), "heuristic-iterative", "ims"))
	add("extra changed", Key(g, m, "simple", "ims"))
	add("extra split moved", Key(g, m, "heuristic-iterativeims"))
}

func TestGetOrComputeHitAndCounters(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	fn := func(context.Context) ([]byte, error) {
		calls++
		return []byte("result"), nil
	}
	v, src, err := c.GetOrCompute(context.Background(), "k1", fn)
	if err != nil || string(v) != "result" || src != Miss {
		t.Fatalf("first call = (%q, %v, %v), want (result, miss, nil)", v, src, err)
	}
	v, src, err = c.GetOrCompute(context.Background(), "k1", fn)
	if err != nil || string(v) != "result" || src != Hit {
		t.Fatalf("second call = (%q, %v, %v), want (result, hit, nil)", v, src, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if st.Bytes <= 0 || st.MaxBytes != 1<<20 {
		t.Errorf("stats bytes = %d/%d, want positive and max 1MiB", st.Bytes, st.MaxBytes)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	boom := errors.New("boom")
	fn := func(context.Context) ([]byte, error) {
		calls++
		return nil, boom
	}
	if _, _, err := c.GetOrCompute(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.GetOrCompute(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("failed compute ran %d times, want 2 (errors must not be cached)", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d after failures, want 0", st.Entries)
	}
}

// TestByteBudgetEviction fills one logical cache well past its budget
// and checks the invariants: bytes never exceed the budget, evictions
// are counted, and the coldest keys are the ones gone.
func TestByteBudgetEviction(t *testing.T) {
	// Budget small enough that a few KB of values overflow every shard.
	const budget = numShards * 2048
	c := New(budget)
	val := make([]byte, 512)
	const n = 256
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%04d", i)
		_, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			return val, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after inserting %d x %dB into a %dB budget", n, len(val), budget)
	}
	if st.Bytes > budget {
		t.Errorf("cache holds %d bytes, budget %d", st.Bytes, budget)
	}
	if st.Entries == 0 {
		t.Errorf("cache empty after inserts; eviction too aggressive")
	}
	if uint64(st.Entries)+st.Evictions != n {
		t.Errorf("entries %d + evictions %d != inserts %d", st.Entries, st.Evictions, n)
	}
	// The most recently inserted key must have survived in its shard.
	if _, ok := c.Get(fmt.Sprintf("key-%04d", n-1)); !ok {
		t.Errorf("most recent key evicted before older ones")
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New(numShards * 256)
	big := make([]byte, 1024)
	v, src, err := c.GetOrCompute(context.Background(), "big", func(context.Context) ([]byte, error) {
		return big, nil
	})
	if err != nil || src != Miss || len(v) != len(big) {
		t.Fatalf("oversized compute = (%d bytes, %v, %v)", len(v), src, err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("oversized value was stored (%d entries)", st.Entries)
	}
}

// TestSingleflight launches many goroutines for one cold key and
// checks exactly one computes while the rest coalesce onto its result.
func TestSingleflight(t *testing.T) {
	c := New(1 << 20)
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(context.Context) ([]byte, error) {
		calls.Add(1)
		close(started)
		<-release
		return []byte("shared"), nil
	}

	const followers = 8
	var wg sync.WaitGroup
	results := make([]Source, followers)
	errs := make([]error, followers)

	// Leader first, so the flight entry exists before followers arrive.
	var leaderSrc Source
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderSrc, leaderErr = c.GetOrCompute(context.Background(), "k", fn)
	}()
	<-started

	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var v []byte
			v, results[i], errs[i] = c.GetOrCompute(context.Background(), "k", fn)
			if errs[i] == nil && string(v) != "shared" {
				errs[i] = fmt.Errorf("got %q", v)
			}
		}(i)
	}
	close(release)
	wg.Wait()

	if leaderErr != nil || leaderSrc != Miss {
		t.Fatalf("leader = (%v, %v), want (miss, nil)", leaderSrc, leaderErr)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", got)
	}
	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Errorf("follower %d: %v", i, errs[i])
		}
		// A follower that arrived after the value landed sees a plain
		// hit; one that waited sees a coalesced share. Both are fine —
		// what matters is that none recomputed.
		if results[i] != Coalesced && results[i] != Hit {
			t.Errorf("follower %d source = %v", i, results[i])
		}
	}
}

// TestFollowerSurvivesCanceledLeader: when the computing caller is
// canceled, a waiting caller with a live context must take over and
// compute the value itself rather than inherit the cancellation.
func TestFollowerSurvivesCanceledLeader(t *testing.T) {
	c := New(1 << 20)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute(leaderCtx, "k", func(ctx context.Context) ([]byte, error) {
			close(leaderStarted)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want canceled", err)
		}
	}()
	<-leaderStarted

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			return []byte("recovered"), nil
		})
		if err != nil || string(v) != "recovered" {
			t.Errorf("follower = (%q, %v), want recovered", v, err)
		}
	}()

	cancelLeader()
	wg.Wait()
}

func TestWaiterOwnContextCancel(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return []byte("late"), nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, "k", func(context.Context) ([]byte, error) {
		return nil, errors.New("must not run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want canceled", err)
	}
}

// TestShardIndexMatchesFNV pins the inlined FNV-1a against hash/fnv:
// every key must keep the shard it had, so the per-shard /statsz and
// /fleetz rows do not move.
func TestShardIndexMatchesFNV(t *testing.T) {
	want := map[string]uint32{
		"":         5, // the FNV-1a offset basis 2166136261, mod 16
		"k1":       1,
		"key-0000": 3,
		"7d865e959b2466918c9863afca942d0fb89d7c9ac0c99bafc3749504ded97730": 4,
	}
	for key, pinned := range want {
		h := fnv.New32a()
		io.WriteString(h, key)
		if ref := h.Sum32() % numShards; ref != pinned {
			t.Fatalf("test table wrong for %q: hash/fnv gives shard %d, table says %d", key, ref, pinned)
		}
		if got := shardIndex(key); got != pinned {
			t.Errorf("shardIndex(%q) = %d, want %d (hash/fnv)", key, got, pinned)
		}
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		h := fnv.New32a()
		io.WriteString(h, key)
		if got, ref := shardIndex(key), h.Sum32()%numShards; got != ref {
			t.Fatalf("shardIndex(%q) = %d, hash/fnv gives %d", key, got, ref)
		}
	}
	if n := testing.AllocsPerRun(100, func() { shardIndex("k1") }); n != 0 {
		t.Errorf("shardIndex allocates %.0f times per call, want 0", n)
	}
}

// TestAliasResolvesAndCountsOnce checks the alias lookup: it finds
// the canonical key's value and counts one hit, and a dangling or
// unknown alias counts nothing.
func TestAliasResolvesAndCountsOnce(t *testing.T) {
	c := New(1 << 20)
	fill := func(context.Context) ([]byte, error) { return []byte("result"), nil }
	if _, _, err := c.GetOrCompute(context.Background(), "canonical", fill); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetAlias("spelling"); ok {
		t.Fatal("unknown alias resolved")
	}
	c.Alias("spelling", "canonical")
	c.Alias("dangling", "never-stored")
	c.Alias("empty", "")
	v, ok := c.GetAlias("spelling")
	if !ok || string(v) != "result" {
		t.Fatalf("GetAlias = (%q, %v), want (result, true)", v, ok)
	}
	if _, ok := c.GetAlias("dangling"); ok {
		t.Error("alias of an unstored key resolved")
	}
	if _, ok := c.GetAlias("empty"); ok {
		t.Error("alias to an empty key was recorded")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 {
		t.Errorf("stats = %+v, want 1 hit and 1 miss (a failed alias lookup counts nothing)", st)
	}
	if st.Entries != 1 || st.Aliases != 2 {
		t.Errorf("entries %d, aliases %d; want 1 and 2", st.Entries, st.Aliases)
	}
	if want := entryCost("canonical", len("result")) + entryCost("spelling", len("canonical")) + entryCost("dangling", len("never-stored")); st.Bytes != want {
		t.Errorf("bytes = %d, want %d (aliases are charged)", st.Bytes, want)
	}
	// Re-recording an alias replaces it in place.
	c.Alias("spelling", "canonical")
	if st2 := c.Stats(); st2.Aliases != 2 || st2.Bytes != st.Bytes {
		t.Errorf("re-recorded alias: aliases %d bytes %d, want 2 and %d", st2.Aliases, st2.Bytes, st.Bytes)
	}
}

// TestAliasesShareTheBudget fills a small cache with aliases alone:
// they are evicted from the LRU to keep every shard in budget, and
// they push out the value whose shard they crowd, which then counts
// as that value's one eviction.
func TestAliasesShareTheBudget(t *testing.T) {
	const budget = numShards * 1024
	c := New(budget)
	if _, _, err := c.GetOrCompute(context.Background(), "canonical", func(context.Context) ([]byte, error) {
		return make([]byte, 256), nil
	}); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		c.Alias(fmt.Sprintf("alias-%04d", i), "canonical")
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Errorf("cache holds %d bytes, budget %d", st.Bytes, budget)
	}
	if st.Aliases == 0 || st.Aliases >= n {
		t.Errorf("%d of %d aliases kept, want some evicted and some kept", st.Aliases, n)
	}
	if st.Entries != 0 || st.Evictions != 1 {
		t.Errorf("entries %d, evictions %d; want the value evicted once by the aliases", st.Entries, st.Evictions)
	}
	if _, ok := c.GetAlias(fmt.Sprintf("alias-%04d", n-1)); ok {
		t.Error("alias resolved to an evicted value")
	}
	if st2 := c.Stats(); st2.Hits != 0 || st2.Misses != 1 {
		t.Errorf("stats = %+v, want only the fill's miss", st2)
	}
}
