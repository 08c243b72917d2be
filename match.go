package adindex

import (
	"slices"
	"sync"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/rewrite"
	"adindex/internal/textnorm"
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
		slices.SortStableFunc(ads, func(a, b corpus.Ad) int {
			switch {
			case a.ID < b.ID:
				return -1
			case a.ID > b.ID:
				return 1
			}
			return 0
		})
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

func adByID(a, b *corpus.Ad) int {
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// appendBroadMatch appends pointers to every broad-matching record to dst:
// base matches (minus tombstones) plus a linear scan of the delta. The
// appended segment is ordered by ID. queryWords must be a canonical word
// set. The returned pointers reference snapshot-internal storage; public
// entry points copy them out before returning.
func (s *snapshot) appendBroadMatch(dst []*corpus.Ad, queryWords []string, counters *costmodel.Counters, sc *core.Scratch) []*corpus.Ad {
	mark := len(dst)
	dst = s.base.AppendBroadMatch(dst, queryWords, counters, sc)
	if len(s.tombs) > 0 {
		dst = s.filterTombs(dst, mark, counters)
	}
	if len(s.delta) > 0 {
		n := len(dst)
		// The delta is scanned with the raw canonical query words: the
		// base prepares queries against its own vocabulary, which may lack
		// delta-only words. The signature column computed at insert time
		// rejects most overlay ads on one 64-bit compare, mirroring the
		// columnar base scan (and its accounting).
		qsig := core.SetSignature(queryWords)
		for i := range s.delta {
			if s.deltaSigs[i]&^qsig != 0 {
				if counters != nil {
					counters.SignatureChecks++
					counters.SignatureRejects++
					counters.BytesScanned += 8
				}
				continue
			}
			rec := &s.delta[i]
			if counters != nil {
				counters.SignatureChecks++
				counters.PhrasesChecked++
				counters.BytesScanned += int64(rec.Size())
			}
			if len(rec.Words) <= len(queryWords) && textnorm.IsSubset(rec.Words, queryWords) {
				dst = append(dst, rec)
			}
		}
		if len(dst) > n {
			if counters != nil {
				counters.Matches += int64(len(dst) - n)
			}
			slices.SortFunc(dst[mark:], adByID)
		}
	}
	return dst
}

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

// exactMatch returns pointers to records whose phrase equals the query as
// a folded token sequence, across base and delta.
func (s *snapshot) exactMatch(query string, counters *costmodel.Counters) []*corpus.Ad {
	matches := s.base.ExactMatch(query, counters)
	if len(s.tombs) > 0 {
		matches = s.filterTombs(matches, 0, counters)
	}
	if len(s.delta) > 0 {
		qTokens := textnorm.FoldDuplicates(textnorm.Tokenize(query))
		if len(qTokens) > 0 {
			n := len(matches)
			for i := range s.delta {
				rec := &s.delta[i]
				if slices.Equal(textnorm.FoldDuplicates(textnorm.Tokenize(rec.Phrase)), qTokens) {
					matches = append(matches, rec)
				}
			}
			if len(matches) > n {
				slices.SortFunc(matches, adByID)
			}
		}
	}
	return matches
}

// phraseMatch returns pointers to records whose phrase occurs contiguously
// in the query, across base and delta.
func (s *snapshot) phraseMatch(query string, counters *costmodel.Counters) []*corpus.Ad {
	matches := s.base.PhraseMatch(query, counters)
	if len(s.tombs) > 0 {
		matches = s.filterTombs(matches, 0, counters)
	}
	if len(s.delta) > 0 {
		qTokens := textnorm.Tokenize(query)
		qset := textnorm.CanonicalSet(textnorm.FoldDuplicates(qTokens))
		if len(qset) > 0 {
			n := len(matches)
			for i := range s.delta {
				rec := &s.delta[i]
				if textnorm.IsSubset(rec.Words, qset) &&
					textnorm.ContainsContiguous(qTokens, textnorm.Tokenize(rec.Phrase)) {
					matches = append(matches, rec)
				}
			}
			if len(matches) > n {
				slices.SortFunc(matches, adByID)
			}
		}
	}
	return matches
}

// queryScratch bundles the per-query buffers of the hot path: the
// canonical query word set, the core enumeration scratch, and the match
// pointer accumulator. Instances are pooled so a steady-state query
// performs no buffer allocations.
type queryScratch struct {
	words   []string
	core    core.Scratch
	matches []*corpus.Ad
	// budget is the per-query cost budget of the budgeted entry points,
	// kept here so a budgeted query allocates nothing extra.
	budget core.Budget
	// auction is the selection state of Search, SelectAds and
	// SelectMatches.
	auction auction

	// Batch-only buffers: one shared token arena for every query in a
	// block (batchOff[i]..batchOff[i+1] delimits query i's canonical
	// word set), the per-query set hashes, and the bucket-sorted
	// processing order.
	batchWords []string
	batchOff   []int32
	batchHash  []uint64
	batchOrder []int32
	batchSpan  []int32
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
	clear(sc.batchWords[:cap(sc.batchWords)])
	sc.batchWords = sc.batchWords[:0]
	sc.batchOff = sc.batchOff[:0]
	sc.batchHash = sc.batchHash[:0]
	sc.batchOrder = sc.batchOrder[:0]
	sc.batchSpan = sc.batchSpan[:0]
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

// copyMatches converts internal match pointers to caller-owned Ad values
// (nil for no matches, preserving the historical API).
func copyMatches(matches []*corpus.Ad) []Ad {
	if len(matches) == 0 {
		return nil
	}
	return appendAdCopies(make([]Ad, 0, len(matches)), matches)
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
	sc := getScratch()
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	sc.matches = v.s.appendBroadMatch(sc.matches[:0], sc.words, counters, &sc.core)
	out := copyMatches(sc.matches)
	putScratch(sc)
	return out
}

// BroadMatchAppend appends copies of all broad-matching ads to dst,
// ordered by ID within the appended segment, and returns the extended
// slice. Reusing dst across calls keeps the hot path at a single
// allocation per query (the string arena backing the copies).
func (v View) BroadMatchAppend(dst []Ad, query string) []Ad {
	sc := getScratch()
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	sc.matches = v.s.appendBroadMatch(sc.matches[:0], sc.words, nil, &sc.core)
	dst = appendAdCopies(dst, sc.matches)
	putScratch(sc)
	return dst
}

// ExactMatch returns ads whose bid phrase equals the query as a normalized
// token sequence.
func (v View) ExactMatch(query string) []Ad {
	return copyMatches(v.s.exactMatch(query, nil))
}

// PhraseMatch returns ads whose bid phrase occurs in the query as a
// contiguous, ordered token subsequence.
func (v View) PhraseMatch(query string) []Ad {
	return copyMatches(v.s.phraseMatch(query, nil))
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
// returns per-query results in order. Beyond amortizing the scratch
// acquisition, the batch sorts its probes by bucket: queries are
// processed in canonical word-set order, so queries sharing leading words
// re-probe the same hash-table region (subset enumeration extends the
// same incremental hashes) while it is still cache-warm, and duplicate
// word sets — common in production streams — are answered once and
// copied, skipping the index walk entirely.
func (v View) BroadMatchBatch(queries []string) [][]Ad {
	out := make([][]Ad, len(queries))
	sc := getScratch()
	// Tokenize every query into one pooled arena; query i's canonical
	// word set is batchWords[batchOff[i]:batchOff[i+1]]. One growing
	// buffer instead of a []string per query keeps the batch entry point
	// allocation-free up to the result copies.
	sc.batchOff = append(sc.batchOff[:0], 0)
	sc.batchHash = sc.batchHash[:0]
	for _, q := range queries {
		mark := len(sc.batchWords)
		sc.batchWords = textnorm.AppendWordSet(sc.batchWords, q)
		sc.batchOff = append(sc.batchOff, int32(len(sc.batchWords)))
		sc.batchHash = append(sc.batchHash, core.WordHash(sc.batchWords[mark:]))
	}
	set := func(i int32) []string {
		return sc.batchWords[sc.batchOff[i]:sc.batchOff[i+1]]
	}
	sc.batchOrder = sc.batchOrder[:0]
	for i := range queries {
		sc.batchOrder = append(sc.batchOrder, int32(i))
	}
	// Order queries by word-set hash — i.e. by the hash-table bucket their
	// full-set probe lands in. One integer compare per step; equal sets
	// sort adjacent (same hash), so duplicates are found by the run scan
	// below, and near-identical probe sequences stay cache-warm.
	slices.SortFunc(sc.batchOrder, func(a, b int32) int {
		ha, hb := sc.batchHash[a], sc.batchHash[b]
		switch {
		case ha < hb:
			return -1
		case ha > hb:
			return 1
		}
		return int(a) - int(b) // deterministic order among duplicate sets
	})
	// Pass 1: resolve each distinct word set once, accumulating all match
	// pointers in one buffer; a duplicate set reuses the span its twin
	// resolved (duplicates are adjacent in the order: equal sets hash
	// equally, and index breaks ties).
	if cap(sc.batchSpan) < 2*len(queries) {
		sc.batchSpan = make([]int32, 2*len(queries))
	}
	span := sc.batchSpan[:2*len(queries)]
	sc.matches = sc.matches[:0]
	for k, idx := range sc.batchOrder {
		if k > 0 {
			if prev := sc.batchOrder[k-1]; textnorm.SetEqual(set(idx), set(prev)) {
				span[2*idx], span[2*idx+1] = span[2*prev], span[2*prev+1]
				continue
			}
		}
		start := int32(len(sc.matches))
		sc.matches = v.s.appendBroadMatch(sc.matches, set(idx), nil, &sc.core)
		span[2*idx], span[2*idx+1] = start, int32(len(sc.matches))
	}

	// Pass 2: copy out into one shared backing and string arena for the
	// whole block (the caller owns the block as a unit), instead of a
	// result slice and arena per query. Both are sized exactly up front:
	// growth would move earlier views to a stale array. A duplicate set
	// re-copies its twin's finished ads, so its Words share the twin's
	// arena segments — the same aliasing a per-query clone produced.
	totalAds, needStrings := 0, 0
	for k, idx := range sc.batchOrder {
		totalAds += int(span[2*idx+1] - span[2*idx])
		if k > 0 && textnorm.SetEqual(set(idx), set(sc.batchOrder[k-1])) {
			continue // duplicate: re-copies finished ads, no arena use
		}
		for _, m := range sc.matches[span[2*idx]:span[2*idx+1]] {
			needStrings += len(m.Words) + len(m.Meta.Exclusions)
		}
	}
	backing := make([]Ad, 0, totalAds)
	arena := make([]string, 0, needStrings)
	for k, idx := range sc.batchOrder {
		lo, hi := span[2*idx], span[2*idx+1]
		if lo == hi {
			continue // historical API: no matches is nil, not empty
		}
		if k > 0 {
			if prev := sc.batchOrder[k-1]; out[prev] != nil && textnorm.SetEqual(set(idx), set(prev)) {
				mark := len(backing)
				backing = append(backing, out[prev]...)
				out[idx] = backing[mark:len(backing):len(backing)]
				continue
			}
		}
		mark := len(backing)
		for _, m := range sc.matches[lo:hi] {
			ad := *m
			arena, ad.Words = appendArena(arena, m.Words)
			arena, ad.Meta.Exclusions = appendArena(arena, m.Meta.Exclusions)
			backing = append(backing, ad)
		}
		out[idx] = backing[mark:len(backing):len(backing)]
	}
	putScratch(sc)
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
