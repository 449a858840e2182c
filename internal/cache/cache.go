// Package cache is the scheduling daemon's content-addressed result
// cache. A request is identified by a canonical hash (Key) of its
// data-dependence graph, machine configuration, and the pipeline
// options that affect the outcome; identical requests — however they
// were spelled — map to the same entry.
//
// The store is a sharded LRU with a byte budget: keys spread over
// independently locked shards so concurrent requests rarely contend,
// and each shard evicts from its cold end when its share of the budget
// overflows. Computation is deduplicated per key (singleflight): while
// one caller runs the pipeline for a key, every other caller for the
// same key waits for that one result instead of running the pipeline
// again. Hit, miss, coalesced-wait, and eviction counters are exposed
// through Stats for the daemon's /statsz endpoint.
//
// Besides values, a shard holds aliases: a second lookup name (the
// daemon uses the SHA-256 of a request's raw body) that resolves to a
// canonical key. Aliases live in the same LRU lists and byte budget as
// values, so they add no bound of their own. They are not values:
// Entries, Evictions and the lookup counters leave them out.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"sync"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// Key returns the canonical content hash of one scheduling request:
// every node (kind and name), every edge (endpoints and distance),
// every field of the machine configuration that can change the
// schedule or its rendering, and the caller's extra strings (variant,
// scheduler, budgets — anything else that selects a different result).
// The encoding is injective — lengths are written before variable-size
// parts — so two different requests cannot collide by concatenation.
// Like the pipeline itself, it requires non-nil inputs.
func Key(g *ddg.Graph, m *machine.Config, extra ...string) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	wInt := func(v int) {
		n := binary.PutVarint(buf[:], int64(v))
		h.Write(buf[:n])
	}
	wStr := func(s string) {
		wInt(len(s))
		io.WriteString(h, s)
	}

	wStr("clustersched-key-v1")

	wInt(g.NumNodes())
	for _, n := range g.Nodes {
		wInt(int(n.Kind))
		wStr(n.Name)
	}
	wInt(len(g.Edges))
	for _, e := range g.Edges {
		wInt(e.From)
		wInt(e.To)
		wInt(e.Distance)
	}

	wStr(m.Name)
	wInt(int(m.Network))
	wInt(m.Buses)
	wInt(len(m.Clusters))
	for i := range m.Clusters {
		c := &m.Clusters[i]
		wInt(len(c.FUs))
		for _, fu := range c.FUs {
			wInt(int(fu))
		}
		wInt(c.ReadPorts)
		wInt(c.WritePorts)
	}
	wInt(len(m.Links))
	for _, l := range m.Links {
		wInt(l.A)
		wInt(l.B)
	}
	for _, lat := range m.Latencies {
		wInt(lat)
	}
	for _, np := range m.NonPipelined {
		if np {
			wInt(1)
		} else {
			wInt(0)
		}
	}

	wInt(len(extra))
	for _, s := range extra {
		wStr(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Source classifies how GetOrCompute produced its value.
type Source int

// Value sources.
const (
	// Miss: this caller ran the compute function.
	Miss Source = iota
	// Hit: the value came straight from the store.
	Hit
	// Coalesced: another caller was already computing the same key;
	// this caller waited and shared that result.
	Coalesced
)

// String returns the lower-case source name (the daemon's X-Cache
// header value).
func (s Source) String() string {
	switch s {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// ShardStats is one shard's slice of the counters: the same fields
// as Stats, scoped to the keys that hash into the shard. The fleet
// balancer and operators read these off /statsz to see shard skew —
// a hot shard shows up as an outsized Bytes/Evictions row.
type ShardStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Aliases   int    `json:"aliases"`
	Bytes     int64  `json:"bytes"`
}

// Stats is a point-in-time snapshot of the cache's counters, summed
// over every shard.
type Stats struct {
	// Hits counts lookups served straight from the store.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that ran the compute function.
	Misses uint64 `json:"misses"`
	// Coalesced counts lookups that waited for an in-flight
	// computation of the same key instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped to keep shards inside the byte
	// budget.
	Evictions uint64 `json:"evictions"`
	// Entries and Aliases count the stored values and aliases; Bytes
	// is what both are charged against the budget, MaxBytes.
	Entries  int   `json:"entries"`
	Aliases  int   `json:"aliases"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Shards is the per-shard breakdown, populated by StatsDetail only
	// (Stats leaves it nil to keep the aggregate snapshot cheap).
	Shards []ShardStats `json:"shards,omitempty"`
}

const numShards = 16

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map slot, entry header) charged against the byte budget on
// top of the key and value lengths.
const entryOverhead = 128

// DefaultMaxBytes is the byte budget used when New is given a
// non-positive one.
const DefaultMaxBytes = 64 << 20

// Cache is the sharded store. Create one with New; the zero value is
// not usable.
type Cache struct {
	shards        [numShards]shard
	maxShardBytes int64
	maxBytes      int64
}

// New returns a cache bounded to roughly maxBytes of keys plus values
// (DefaultMaxBytes when maxBytes <= 0). Entries larger than one
// shard's share of the budget are returned to their caller but never
// stored.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{maxBytes: maxBytes, maxShardBytes: maxBytes / numShards}
	for i := range c.shards {
		c.shards[i].init()
	}
	return c
}

type entry struct {
	key string
	val []byte
	// target is an alias's canonical key; empty for a value entry.
	target     string
	next, prev *entry // LRU list: next is colder, prev is hotter
}

// cost is what the entry is charged against its shard's budget.
func (e *entry) cost() int64 { return entryCost(e.key, len(e.val)+len(e.target)) }

// entryCost is the charge for an entry under key with size bytes of
// value or alias target.
func entryCost(key string, size int) int64 {
	return int64(len(key)) + int64(size) + entryOverhead
}

type call struct {
	done chan struct{}
	val  []byte
	err  error
}

type shard struct {
	mu      sync.Mutex
	items   map[string]*entry
	aliases map[string]*entry
	flight  map[string]*call
	// head is hottest, tail coldest; nil when empty.
	head, tail *entry
	bytes      int64

	hits, misses, coalesced, evictions uint64
}

func (s *shard) init() {
	s.items = make(map[string]*entry)
	s.aliases = make(map[string]*entry)
	s.flight = make(map[string]*call)
}

// shardIndex is the 32-bit FNV-1a hash of key (hash/fnv's New32a,
// inlined so a lookup allocates nothing) reduced to a shard number.
func shardIndex(key string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h % numShards
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[shardIndex(key)]
}

// GetOrCompute returns the cached value for key, or runs fn once to
// produce it. Concurrent callers with the same key are coalesced: one
// runs fn, the rest wait and share its result. Successful values are
// stored (unless oversized); errors are never cached. A waiting
// caller whose own ctx ends returns ctx.Err() immediately; a waiter
// whose leader was canceled retries as the new leader, so one
// disconnecting client cannot poison identical live requests.
//
// The returned slice is shared with the cache and must not be
// modified.
func (c *Cache) GetOrCompute(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) ([]byte, Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := c.shardFor(key)
	for {
		s.mu.Lock()
		if e, ok := s.items[key]; ok {
			s.moveToFrontLocked(e)
			s.hits++
			val := e.val
			s.mu.Unlock()
			return val, Hit, nil
		}
		if cl, ok := s.flight[key]; ok {
			s.coalesced++
			s.mu.Unlock()
			// The race between the leader finishing and our context
			// expiring only decides who reports cancellation; the
			// cached bytes are identical on every outcome.
			//schedvet:allow nondet follower wakeup order does not affect results
			select {
			case <-cl.done:
				if cl.err == nil {
					return cl.val, Coalesced, nil
				}
				if errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded) {
					if ctx.Err() == nil {
						continue // leader was canceled, we are still live: take over
					}
					return nil, Coalesced, ctx.Err()
				}
				return nil, Coalesced, cl.err
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
		cl := &call{done: make(chan struct{})}
		s.flight[key] = cl
		s.misses++
		s.mu.Unlock()

		cl.val, cl.err = fn(ctx)

		s.mu.Lock()
		delete(s.flight, key)
		if cl.err == nil {
			s.putLocked(s.items, key, cl.val, "", c.maxShardBytes)
		}
		s.mu.Unlock()
		close(cl.done)
		return cl.val, Miss, cl.err
	}
}

// Get returns the cached value for key without computing anything.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		s.moveToFrontLocked(e)
		s.hits++
		return e.val, true
	}
	return nil, false
}

// Alias records that the lookup name alias resolves to the canonical
// key, so that GetAlias(alias) finds key's value. The alias is stored
// in its own shard as an entry of the LRU list, charged against the
// byte budget like a value and evicted like one. An empty key records
// nothing.
func (c *Cache) Alias(alias, key string) {
	if key == "" {
		return
	}
	s := c.shardFor(alias)
	s.mu.Lock()
	s.putLocked(s.aliases, alias, nil, key, c.maxShardBytes)
	s.mu.Unlock()
}

// GetAlias returns the value stored under the canonical key alias
// resolves to, counting one hit like Get. When the alias is unknown,
// or its key's value is no longer stored, it returns false and counts
// nothing, so the caller's fallback lookup is the one that counts.
func (c *Cache) GetAlias(alias string) ([]byte, bool) {
	s := c.shardFor(alias)
	s.mu.Lock()
	e, ok := s.aliases[alias]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFrontLocked(e)
	key := e.target
	s.mu.Unlock()
	return c.Get(key)
}

// Stats sums every shard's counters.
func (c *Cache) Stats() Stats {
	st := Stats{MaxBytes: c.maxBytes}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Coalesced += s.coalesced
		st.Evictions += s.evictions
		st.Entries += len(s.items)
		st.Aliases += len(s.aliases)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// StatsDetail is Stats with the per-shard breakdown attached, for
// /statsz consumers watching occupancy and eviction skew. Each shard
// is snapshotted under its own lock, so rows are individually
// consistent (the aggregate is their sum, not a global freeze).
func (c *Cache) StatsDetail() Stats {
	st := Stats{MaxBytes: c.maxBytes, Shards: make([]ShardStats, numShards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		row := ShardStats{
			Hits:      s.hits,
			Misses:    s.misses,
			Coalesced: s.coalesced,
			Evictions: s.evictions,
			Entries:   len(s.items),
			Aliases:   len(s.aliases),
			Bytes:     s.bytes,
		}
		s.mu.Unlock()
		st.Shards[i] = row
		st.Hits += row.Hits
		st.Misses += row.Misses
		st.Coalesced += row.Coalesced
		st.Evictions += row.Evictions
		st.Entries += row.Entries
		st.Aliases += row.Aliases
		st.Bytes += row.Bytes
	}
	return st
}

// putLocked stores an entry under key in m (s.items for a value,
// s.aliases for an alias) and evicts from the cold end until the shard
// fits its budget again. Oversized entries are not stored at all.
func (s *shard) putLocked(m map[string]*entry, key string, val []byte, target string, maxBytes int64) {
	if entryCost(key, len(val)+len(target)) > maxBytes {
		return
	}
	e, ok := m[key]
	if ok { // racing leaders after a retry, or a re-recorded alias
		s.bytes -= e.cost()
		s.moveToFrontLocked(e)
	} else {
		e = &entry{key: key}
		m[key] = e
		s.pushFrontLocked(e)
	}
	e.val, e.target = val, target
	s.bytes += e.cost()
	for s.bytes > maxBytes && s.tail != nil {
		s.evictLocked(s.tail)
	}
}

func (s *shard) evictLocked(e *entry) {
	s.unlinkLocked(e)
	if e.target != "" {
		delete(s.aliases, e.key)
	} else {
		delete(s.items, e.key)
		s.evictions++
	}
	s.bytes -= e.cost()
}

func (s *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFrontLocked(e *entry) {
	if s.head == e {
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}
