// Result cache: a sharded LRU over served answers, keyed by the normalized
// form of the query and tagged with the index mutation epoch. An entry is
// the answer as served: the ads returned (the auction winners when the
// server has a Selection), the match count before selection, and the
// MaxQueryWords cutoff flag, so a hit replies exactly as its miss did.
//
// Key choice. Broad match is insensitive to word order and duplicate
// multiplicity beyond folding ("cheap used books" and "used cheap books"
// retrieve the same ads), so broad results are keyed by the canonical word
// set (textnorm.SetKey of textnorm.WordSet) — all surface orderings of a
// query share one cache entry. Exact and phrase match are order-sensitive,
// so those are keyed by the normalized token sequence instead. Under the
// power-law query frequencies of the paper's workload model (§V) a small
// cache keyed this way absorbs most of the head.
//
// Invalidation. Entries carry the index epoch (adindex.Index.Epoch) at
// which their result was computed. A lookup presents the current epoch; an
// entry from an older epoch is stale — it is dropped and counts as an
// invalidation, never served. This makes Insert/Delete/Optimize invalidate
// the whole cache in O(1) with no traversal and no coordination beyond the
// epoch read.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"adindex"
)

// cacheEntry is one cached query answer.
type cacheEntry struct {
	key   string
	epoch uint64
	res   adindex.MatchResult
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element // value: *cacheEntry
	lru   *list.List               // front = most recent
}

// Cache is a sharded LRU result cache, safe for concurrent use. Sharding
// by key hash keeps lock contention low when many goroutines hit it.
type Cache struct {
	shards []*cacheShard
	mask   uint32

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// NewCache builds a cache holding up to entries results across `shards`
// shards (both rounded up to useful minimums; shards is rounded up to a
// power of two). entries <= 0 returns a nil cache, on which all methods
// are no-op misses — callers need no special "caching disabled" path.
func NewCache(entries, shards int) *Cache {
	if entries <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (entries + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]*cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   perShard,
			items: make(map[string]*list.Element),
			lru:   list.New(),
		}
	}
	return c
}

// fnv1a is the 32-bit FNV-1a hash, inlined to keep shard selection
// allocation-free.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shard(key string) *cacheShard {
	return c.shards[fnv1a(key)&c.mask]
}

// Get returns the cached result for key if present and computed at the
// given epoch. A present-but-stale entry is removed and counted as an
// invalidation (and a miss).
func (c *Cache) Get(key string, epoch uint64) (adindex.MatchResult, bool) {
	if c == nil {
		return adindex.MatchResult{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return adindex.MatchResult{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		s.lru.Remove(el)
		delete(s.items, key)
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return adindex.MatchResult{}, false
	}
	s.lru.MoveToFront(el)
	s.mu.Unlock()
	c.hits.Add(1)
	return ent.res, true
}

// Put stores a result computed at the given epoch, evicting the shard's
// least-recently-used entry if the shard is full. If the key is already
// present the entry is replaced. A Put racing a concurrent mutation is
// harmless in either direction: the entry is tagged with the epoch the
// result was actually computed at, so a Get at any other epoch discards
// it rather than serving it.
func (c *Cache) Put(key string, epoch uint64, res adindex.MatchResult) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value = &cacheEntry{key: key, epoch: epoch, res: res}
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
	}
	s.items[key] = s.lru.PushFront(&cacheEntry{key: key, epoch: epoch, res: res})
}

// Len returns the number of live entries (stale entries not yet touched by
// a Get are included — they are invalidated lazily).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns cumulative hit/miss/invalidation counts.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load()
}
