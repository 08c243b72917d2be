package adindex

import (
	"cmp"
	"slices"
	"sort"

	"adindex/internal/corpus"
	"adindex/internal/textnorm"
)

// Selection configures the secondary filtering and ranking applied after
// broad-match retrieval (the auction-side criteria of the paper's
// introduction: bid price, keyword exclusion, click-through rate,
// previously shown ads). None of these are monotone in per-keyword scores,
// which is why they run after retrieval rather than inside the index.
type Selection struct {
	// MinBidMicros drops ads bidding below this floor.
	MinBidMicros int64
	// ExcludeShown drops ads whose IDs appear in this set (e.g. already
	// displayed to this user).
	ExcludeShown map[uint64]bool
	// MaxResults caps the number of returned ads (0 = no cap).
	MaxResults int
	// RankByExpectedRevenue orders by BidMicros·ClickRate instead of
	// BidMicros alone.
	RankByExpectedRevenue bool
}

// score is an ad's undiscounted rank score under sel.
func (sel *Selection) score(m *Meta) int64 {
	if sel.RankByExpectedRevenue {
		return m.BidMicros * int64(m.ClickRate)
	}
	return m.BidMicros
}

// SelectAds applies exclusion keywords, bid floors, shown-ad suppression,
// and ranking to broad-match results for the given query, returning the
// auction winners in rank order: score descending, then ID ascending,
// then input order.
func SelectAds(query string, matches []Ad, sel Selection) []Ad {
	sc := getScratch()
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	a := sc.startAuction(&sel)
	for i := range matches {
		ad := &matches[i]
		a.offer(ad, rankKey{score: sel.score(&ad.Meta), id: ad.ID, pos: i})
	}
	keys := a.winners()
	out := make([]Ad, 0, len(keys))
	for _, k := range keys {
		out = append(out, matches[k.pos])
	}
	putScratch(sc)
	return out
}

// RankDiscountPercent is the bid multiplier (in percent) an approximate
// match earns in the auction: an advertiser bid on the exact keyword set,
// so results reached through a rewrite are charged toward the ranking at
// a discount growing with the rewrite's distance from the query (the
// broad-match pricing rationale: the further the match, the less the
// click is worth to the bidder). Exact matches keep full value, synonym
// substitutions 90%, one-edit spelling fixes 75%, anything farther 50%.
func RankDiscountPercent(info MatchInfo) int64 {
	switch info.Type {
	case MatchSynonym:
		return 90
	case MatchFuzzy:
		if info.Distance <= 1 {
			return 75
		}
		return 50
	default:
		return 100
	}
}

// SelectMatches is SelectAds for approximate broad-match results: the
// same exclusion, floor, and shown-ad filters apply, but each ad's rank
// score is discounted by RankDiscountPercent of its match info before
// ordering. The bid floor is checked against the undiscounted bid (the
// advertiser's real commitment); ties break by ID, then by penalty so an
// exact duplicate outranks its rewritten twin.
func SelectMatches(query string, matches []Match, sel Selection) []Match {
	sc := getScratch()
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	a := sc.startAuction(&sel)
	for i := range matches {
		m := &matches[i]
		a.offer(&m.Ad, rankKey{
			score: sel.score(&m.Meta) * RankDiscountPercent(m.Info) / 100,
			id:    m.ID,
			tie:   m.Info.Penalty(),
			pos:   i,
		})
	}
	keys := a.winners()
	out := make([]Match, 0, len(keys))
	for _, k := range keys {
		out = append(out, matches[k.pos])
	}
	putScratch(sc)
	return out
}

// rankKey places one auction candidate in the rank order: score
// descending, then ID ascending, then tie (the rewrite penalty; zero for
// plain matches) ascending, then input position. The position makes the
// order total, so selecting the K best is a stable sort truncated to K.
type rankKey struct {
	score int64
	id    uint64
	tie   int
	pos   int
}

func (k rankKey) compare(o rankKey) int {
	if c := cmp.Compare(o.score, k.score); c != 0 {
		return c
	}
	if c := cmp.Compare(k.id, o.id); c != 0 {
		return c
	}
	if c := cmp.Compare(k.tie, o.tie); c != 0 {
		return c
	}
	return cmp.Compare(k.pos, o.pos)
}

// auction is the one ranking routine behind SelectAds, SelectMatches and
// View.Search. Candidates are offered one at a time; the cheap per-ad
// filters run first, and an ad's negative keywords are tokenized (into a
// pooled buffer) only when it would enter the current top MaxResults.
// That is exact: every filter looks at one ad alone, so an ad ranking
// below MaxResults admitted candidates can never be a winner, excluded or
// not. It lives in the pooled queryScratch, so a warm auction allocates
// nothing.
type auction struct {
	sel    *Selection
	qWords []string
	// top holds the keys of the winners so far. While MaxResults bounds
	// the auction it is a heap with the lowest-ranked winner at the root.
	top []rankKey
	// excl is the token buffer one exclusion's word set is built in.
	excl []string
}

// startAuction readies the scratch's auction for sel over the query word
// set in sc.words.
func (sc *queryScratch) startAuction(sel *Selection) *auction {
	sc.auction.sel, sc.auction.qWords = sel, sc.words
	sc.auction.top = sc.auction.top[:0]
	return &sc.auction
}

// offer enters one candidate ad under key.
func (a *auction) offer(ad *corpus.Ad, key rankKey) {
	sel := a.sel
	if ad.Meta.BidMicros < sel.MinBidMicros || (len(sel.ExcludeShown) > 0 && sel.ExcludeShown[ad.ID]) {
		return
	}
	full := sel.MaxResults > 0 && len(a.top) == sel.MaxResults
	if full && key.compare(a.top[0]) > 0 {
		return
	}
	if a.excluded(ad) {
		return
	}
	if full {
		a.top[0] = key
		a.siftDown()
		return
	}
	a.top = append(a.top, key)
	if sel.MaxResults > 0 {
		a.siftUp()
	}
}

// siftUp restores the heap after an append: a child never ranks below
// its parent.
func (a *auction) siftUp() {
	h := a.top
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].compare(h[i]) > 0 {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the heap after the root was replaced.
func (a *auction) siftDown() {
	h := a.top
	for i := 0; ; {
		low := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].compare(h[low]) > 0 {
				low = c
			}
		}
		if low == i {
			return
		}
		h[i], h[low] = h[low], h[i]
		i = low
	}
}

// winners returns the admitted keys in rank order.
func (a *auction) winners() []rankKey {
	slices.SortFunc(a.top, rankKey.compare)
	return a.top
}

// excluded reports whether any word of one of the ad's negative keywords
// occurs in the query.
func (a *auction) excluded(ad *corpus.Ad) bool {
	for _, e := range ad.Meta.Exclusions {
		a.excl = textnorm.AppendWordSet(a.excl[:0], e)
		for _, w := range a.excl {
			if containsWord(a.qWords, w) {
				return true
			}
		}
	}
	return false
}

func containsWord(sorted []string, w string) bool {
	i := sort.SearchStrings(sorted, w)
	return i < len(sorted) && sorted[i] == w
}
