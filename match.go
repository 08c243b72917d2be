package adindex

import (
	"cmp"
	"slices"
	"sync"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/rewrite"
)

// snapshot is one immutable published state of the index: a base
// core.Index plus a small mutation overlay (appended ads and base
// tombstones) and the epoch at which it was published. Readers obtain a
// snapshot with one atomic load and may use it indefinitely; no field is
// ever mutated after publication (Insert appends into spare delta
// capacity beyond every published length, which published readers cannot
// observe).
type snapshot struct {
	base *core.Index
	// delta holds ads inserted since base was built, scanned linearly at
	// query time. Bounded by Options.MaxDeltaAds.
	delta []corpus.Ad
	// deltaSigs[i] is the word-set signature of delta[i] (computed once at
	// insert), so the overlay scan gets the same branch-free signature
	// reject as the columnar base nodes.
	deltaSigs []uint64
	// tombs suppresses base records deleted since base was built, keyed by
	// (ID, canonical word-set key) with the number of deletions per key
	// (duplicate records are deleted one at a time, like core.Delete).
	tombs map[tombKey]int
	// deleted is the total count of base records suppressed by tombs.
	deleted int
	epoch   uint64

	// bv is the shared lazy vocabulary trie of this snapshot's base,
	// attached by publish and inherited by every snapshot published on the
	// same base, so the trie is built at most once per fold/rebuild.
	bv *baseVocab
	// vocab is this snapshot's lazily computed live word universe (the
	// base trie adjusted for overlay inserts and tombstones), guarded by
	// vocabOnce. Only the rewrite path touches it.
	vocabOnce sync.Once
	vocab     *rewrite.Vocabulary
}

// tombKey identifies a deleted base record: core deletion semantics match
// on ad ID plus canonical word set, not the raw phrase string.
type tombKey struct {
	id  uint64
	key string
}

// overlaySize measures how much mutation state rides on top of the base,
// for the fold threshold.
func (s *snapshot) overlaySize() int {
	return len(s.delta) + len(s.tombs)
}

// materialize returns the full live corpus: base ads minus tombstoned
// records plus delta ads, ordered by ID. The ad structs are copies but
// their Words/Exclusions still alias (immutable) snapshot storage.
func (s *snapshot) materialize() []corpus.Ad {
	ads := s.base.Ads()
	if len(s.tombs) > 0 {
		used := make(map[tombKey]int, len(s.tombs))
		w := 0
		for i := range ads {
			k := tombKey{id: ads[i].ID, key: ads[i].SetKey()}
			if t := s.tombs[k]; t > 0 && used[k] < t {
				used[k]++
				continue
			}
			ads[w] = ads[i]
			w++
		}
		ads = ads[:w]
	}
	if len(s.delta) > 0 {
		ads = append(ads, s.delta...)
		slices.SortStableFunc(ads, func(a, b corpus.Ad) int { return adByID(&a, &b) })
	}
	return ads
}

// fold rebuilds a fresh base containing the snapshot's full corpus,
// preserving the base's optimized placement; word sets that only exist in
// the delta get default placement. The receiver is not modified.
func (s *snapshot) fold(opts core.Options) *core.Index {
	ads := s.materialize()
	base, err := core.NewWithMapping(ads, s.base.Mapping(), opts)
	if err != nil {
		// The live base's mapping is valid by construction; this is
		// unreachable, but default placement is always a safe fallback.
		base = core.New(ads, opts)
	}
	return base
}

func adByID(a, b *corpus.Ad) int { return cmp.Compare(a.ID, b.ID) }

// filterTombs removes tombstoned base records from dst[mark:] in place,
// honoring per-key deletion counts (a key deleted twice suppresses two of
// its duplicate records).
func (s *snapshot) filterTombs(dst []*corpus.Ad, mark int, counters *costmodel.Counters) []*corpus.Ad {
	var used map[tombKey]int
	w := mark
	for _, m := range dst[mark:] {
		k := tombKey{id: m.ID, key: m.SetKey()}
		if t := s.tombs[k]; t > 0 {
			if used == nil {
				used = make(map[tombKey]int, len(s.tombs))
			}
			if used[k] < t {
				used[k]++
				if counters != nil {
					counters.Matches--
				}
				continue
			}
		}
		dst[w] = m
		w++
	}
	clear(dst[w:])
	return dst[:w]
}

// queryScratch bundles the per-query buffers of the hot path: the
// canonical query word set, the core enumeration scratch, and the match
// pointer accumulator. Instances are pooled so a steady-state query
// performs no buffer allocations.
type queryScratch struct {
	words   []string
	core    core.Scratch
	matches []*corpus.Ad
	// infos is aligned with matches in a rewritten search.
	infos []MatchInfo
	// budget is the per-query cost budget of every search (zero means
	// unbounded), kept here so a query allocates nothing for it.
	budget core.Budget
	// auction is the selection state of Search, SelectAds and
	// SelectMatches.
	auction auction
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch {
	return scratchPool.Get().(*queryScratch)
}

// putScratch returns sc to the pool with every reference into snapshot (or
// caller) storage cleared, so a pooled scratch never pins a retired
// snapshot's memory.
func putScratch(sc *queryScratch) {
	clear(sc.words[:cap(sc.words)])
	sc.words = sc.words[:0]
	sc.core.Reset()
	clear(sc.matches[:cap(sc.matches)])
	sc.matches = sc.matches[:0]
	sc.infos = sc.infos[:0]
	sc.budget = core.Budget{} // drops the caller's clock func
	clear(sc.auction.excl[:cap(sc.auction.excl)])
	sc.auction.excl = sc.auction.excl[:0]
	sc.auction.top = sc.auction.top[:0]
	sc.auction.sel, sc.auction.qWords = nil, nil
	scratchPool.Put(sc)
}

// appendAdCopies appends deep copies of matches to dst. All Words and
// Exclusions slices of the appended ads share a single string arena, so
// the whole copy costs two allocations (arena + dst growth) regardless of
// match count, and no returned slice aliases index-internal storage.
// With no matches dst comes back unchanged, so a nil dst stays nil (the
// historical no-match result).
func appendAdCopies(dst []Ad, matches []*corpus.Ad) []Ad {
	if len(matches) == 0 {
		return dst
	}
	need := 0
	for _, m := range matches {
		need += len(m.Words) + len(m.Meta.Exclusions)
	}
	arena := make([]string, 0, need)
	dst = slices.Grow(dst, len(matches))
	for _, m := range matches {
		ad := *m
		arena, ad.Words = appendArena(arena, m.Words)
		arena, ad.Meta.Exclusions = appendArena(arena, m.Meta.Exclusions)
		dst = append(dst, ad)
	}
	return dst
}

// appendArena copies src into the arena and returns the arena plus a
// full-capacity-clipped view of the copy. The arena must have been sized
// up front: growth here would move earlier views to a stale array.
func appendArena(arena, src []string) ([]string, []string) {
	if len(src) == 0 {
		return arena, nil
	}
	mark := len(arena)
	arena = append(arena, src...)
	return arena, arena[mark:len(arena):len(arena)]
}

// deepCopyAdStrings rebinds every Words/Exclusions slice in ads to a fresh
// shared arena so the ads no longer alias index storage.
func deepCopyAdStrings(ads []Ad) {
	need := 0
	for i := range ads {
		need += len(ads[i].Words) + len(ads[i].Meta.Exclusions)
	}
	arena := make([]string, 0, need)
	for i := range ads {
		arena, ads[i].Words = appendArena(arena, ads[i].Words)
		arena, ads[i].Meta.Exclusions = appendArena(arena, ads[i].Meta.Exclusions)
	}
}

// View is a consistent, immutable read-only view of the index: every query
// on a View runs against the same snapshot, and Epoch identifies exactly
// that snapshot. Result caches use the pair (obtain View once per request;
// tag the cached result with its Epoch) to guarantee an entry is never
// newer or older than the state that produced it. A View remains valid
// indefinitely; it simply pins one generation's memory. Obtain Views from
// Index.View — the zero View is not usable.
type View struct {
	s *snapshot
	// rw is the index's rewrite planner (nil when rewriting is disabled);
	// carried on the View so BroadMatchRewrite needs no Index reference.
	rw *rewrite.Planner
}

// View returns a consistent view of the index's current state. It is a
// single atomic load and never blocks.
func (ix *Index) View() View {
	return View{s: ix.snap.Load(), rw: ix.rewriter}
}

// Epoch returns the mutation epoch of the viewed snapshot.
func (v View) Epoch() uint64 { return v.s.epoch }

// BroadMatch returns copies of all ads whose bid phrases broad-match the
// query (every bid word occurs in the query), ordered by ID.
func (v View) BroadMatch(query string) []Ad {
	return v.BroadMatchCounted(query, nil)
}

// BroadMatchCounted is BroadMatch with memory-access accounting.
func (v View) BroadMatchCounted(query string, counters *Counters) []Ad {
	return v.search(nil, query, Request{Counters: counters}).Ads
}

// BroadMatchAppend appends copies of all broad-matching ads to dst,
// ordered by ID within the appended segment, and returns the extended
// slice. Reusing dst across calls keeps the hot path at a single
// allocation per query (the string arena backing the copies).
func (v View) BroadMatchAppend(dst []Ad, query string) []Ad {
	return v.search(dst, query, Request{}).Ads
}

// ExactMatch returns ads whose bid phrase equals the query as a normalized
// token sequence.
func (v View) ExactMatch(query string) []Ad {
	return v.Search(query, Request{Kind: Exact}).Ads
}

// PhraseMatch returns ads whose bid phrase occurs in the query as a
// contiguous, ordered token subsequence.
func (v View) PhraseMatch(query string) []Ad {
	return v.Search(query, Request{Kind: Phrase}).Ads
}

// BroadMatch returns copies of all ads whose bid phrases broad-match the
// query (every bid word occurs in the query), ordered by ID. The read is
// lock-free: one atomic snapshot load, no mutex, no reader-side
// contention.
func (ix *Index) BroadMatch(query string) []Ad {
	return ix.View().BroadMatch(query)
}

// BroadMatchCounted is BroadMatch with memory-access accounting.
func (ix *Index) BroadMatchCounted(query string, counters *Counters) []Ad {
	return ix.View().BroadMatchCounted(query, counters)
}

// BroadMatchAppend is BroadMatch appending into dst; see View.BroadMatchAppend.
func (ix *Index) BroadMatchAppend(dst []Ad, query string) []Ad {
	return ix.View().BroadMatchAppend(dst, query)
}

// BroadMatchBatch evaluates all queries against this view's snapshot and
// returns per-query results in order: one BroadMatch per query, all on
// the same snapshot.
func (v View) BroadMatchBatch(queries []string) [][]Ad {
	out := make([][]Ad, len(queries))
	for i, q := range queries {
		out[i] = v.BroadMatch(q)
	}
	return out
}

// BroadMatchBatch evaluates all queries against one consistent snapshot
// and returns per-query results in order; see View.BroadMatchBatch.
func (ix *Index) BroadMatchBatch(queries []string) [][]Ad {
	return ix.View().BroadMatchBatch(queries)
}

// ExactMatch returns ads whose bid phrase equals the query as a normalized
// token sequence. Lock-free.
func (ix *Index) ExactMatch(query string) []Ad {
	return ix.View().ExactMatch(query)
}

// PhraseMatch returns ads whose bid phrase occurs in the query as a
// contiguous, ordered token subsequence. Lock-free.
func (ix *Index) PhraseMatch(query string) []Ad {
	return ix.View().PhraseMatch(query)
}
