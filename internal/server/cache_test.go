package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"adindex"
)

func ad(id uint64) adindex.MatchResult {
	return adindex.MatchResult{
		Ads:     []adindex.Ad{adindex.NewAd(id, fmt.Sprintf("phrase %d", id), adindex.Meta{})},
		Matched: 1,
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(8, 2)
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", 0, ad(1))
	got, ok := c.Get("k", 0)
	if !ok || len(got.Ads) != 1 || got.Ads[0].ID != 1 || got.Matched != 1 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	hits, misses, inv := c.Stats()
	if hits != 1 || misses != 1 || inv != 0 {
		t.Errorf("stats = %d/%d/%d, want 1/1/0", hits, misses, inv)
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache(8, 1)
	c.Put("k", 0, ad(1))
	// Same key at a newer epoch: the stale entry must never be served.
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("served a result from an older epoch")
	}
	_, _, inv := c.Stats()
	if inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}
	if c.Len() != 0 {
		t.Errorf("stale entry not removed: len = %d", c.Len())
	}
	// An entry stored at a *newer* epoch than the reader's view must not
	// be served either (e.g. a reader that captured its epoch before a
	// mutation landed).
	c.Put("k", 2, ad(2))
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("served a result from a different epoch")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1) // single shard, two entries
	c.Put("a", 0, ad(1))
	c.Put("b", 0, ad(2))
	c.Get("a", 0) // a is now most-recent
	c.Put("c", 0, ad(3))
	if _, ok := c.Get("b", 0); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Error("recently-used entry a was evicted")
	}
	if _, ok := c.Get("c", 0); !ok {
		t.Error("new entry c missing")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	var c *Cache // NewCache(<=0, …) returns nil; all methods are no-ops
	if c := NewCache(0, 4); c != nil {
		t.Fatal("NewCache(0) should disable caching")
	}
	c.Put("k", 0, ad(1))
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache(100, 3)
	if len(c.shards) != 4 {
		t.Errorf("shards = %d, want 4 (rounded up to power of two)", len(c.shards))
	}
	// Total capacity is at least the requested number of entries.
	total := 0
	for _, s := range c.shards {
		total += s.cap
	}
	if total < 100 {
		t.Errorf("total capacity %d < requested 100", total)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%32)
				epoch := uint64(i % 3)
				if got, ok := c.Get(key, epoch); ok && len(got.Ads) != 1 {
					t.Errorf("bad cached value for %s: %v", key, got)
					return
				}
				c.Put(key, epoch, ad(uint64(i)))
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheHitKeepsCutoff: a query cut by MaxQueryWords reports the
// cutoff, and counts it, on its cache hit as on its miss.
func TestCacheHitKeepsCutoff(t *testing.T) {
	var ads []adindex.Ad
	var words []string
	for i := 0; i < 16; i++ {
		w := fmt.Sprintf("w%02d", i)
		words = append(words, w)
		ads = append(ads, adindex.NewAd(uint64(i+1), w, adindex.Meta{BidMicros: int64(100 * (i%4 + 1))}))
	}
	for _, sel := range []*adindex.Selection{nil, {MaxResults: 3}} {
		s := New(adindex.Build(ads, adindex.Options{}), Config{Selection: sel})
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown(t.Context()) })
		base := "http://" + s.Addr()

		q := strings.Join(words, " ")
		miss := search(t, base, q, "")
		hit := search(t, base, q, "")
		if miss.Cached || !hit.Cached {
			t.Fatalf("selection %v: cached = %v then %v, want false then true", sel, miss.Cached, hit.Cached)
		}
		if !miss.CutoffApplied || !hit.CutoffApplied {
			t.Fatalf("selection %v: cutoff_applied = %v on the miss, %v on the hit", sel, miss.CutoffApplied, hit.CutoffApplied)
		}
		if miss.Matched != hit.Matched || !slices.Equal(adIDs(miss.Ads), adIDs(hit.Ads)) {
			t.Fatalf("selection %v: miss matched %d ads %v, hit matched %d ads %v",
				sel, miss.Matched, adIDs(miss.Ads), hit.Matched, adIDs(hit.Ads))
		}
		if got := s.metrics.Cutoffs.Load(); got != 2 {
			t.Fatalf("selection %v: Cutoffs = %d, want 2", sel, got)
		}
	}
}

func adIDs(ads []adindex.Ad) []uint64 {
	ids := make([]uint64, len(ads))
	for i := range ads {
		ids[i] = ads[i].ID
	}
	return ids
}
