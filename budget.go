package adindex

import (
	"slices"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// QueryBudget bounds the work one search may perform: MaxCost in
// index cost units (subset probes plus records scanned; zero means
// unlimited) and an optional wall-clock Deadline. Now is the clock used
// for deadline checks (nil = time.Now); tests inject a fake clock.
//
// The budget check is cooperative and cheap — a counter compare at node
// granularity, no context.Context anywhere near the inner loop — so a
// budgeted query costs the same as an unbudgeted one until it trips.
type QueryBudget struct {
	MaxCost  int64
	Deadline time.Time
	Now      func() time.Time
}

// Kind is the match type of a Search: how a bid phrase must occur in
// the query.
type Kind uint8

const (
	// Broad: every bid word occurs in the query, in any order.
	Broad Kind = iota
	// Exact: the bid phrase is the query, as a folded token sequence.
	Exact
	// Phrase: the bid phrase occurs in the query as a contiguous, ordered
	// token run.
	Phrase
)

// Request configures one Search. The zero Request is an unbounded broad
// match returning every match in ID order.
type Request struct {
	Kind Kind
	// Rewrite adds the planner's rewrite variants to a broad match (see
	// BroadMatchRewrite); Exact and Phrase ignore it.
	Rewrite bool
	// Budget bounds the whole search, rewrite probes included.
	Budget QueryBudget
	// Selection, when non-nil, runs the auction before copy-out.
	Selection *Selection
	// Counters, when non-nil, accumulates the memory-access accounting.
	Counters *Counters
}

// MatchResult is the outcome of a Search. Truncated results are always a
// correct prefix of the work: every match is fully verified and, without
// a Selection, Ads is ID-ordered, so a truncated answer is a subset of
// the full answer — never wrong, only incomplete.
type MatchResult struct {
	// Ads holds every match in ID order, or with a Selection the auction
	// winners in rank order.
	Ads []Ad
	// Info is how each ad of Ads was reached; nil unless Request.Rewrite.
	Info []MatchInfo
	// Matched counts the matches before selection.
	Matched int
	// Truncated reports that the budget (cost or deadline) exhausted
	// before enumeration completed; Ads holds the partial results.
	Truncated bool
	// CutoffApplied reports that the static MaxQueryWords cutoff dropped
	// query words during preparation — previously a silent loss.
	CutoffApplied bool
	// CostSpent is the cost-model units this query charged.
	CostSpent int64
	// Rewrite is the expansion work of a Request.Rewrite search.
	Rewrite RewriteStats
}

// Matches pairs each ad of r with its match info (MatchExact without
// Info); nil when r holds no ads.
func (r MatchResult) Matches() []Match {
	if len(r.Ads) == 0 {
		return nil
	}
	out := make([]Match, len(r.Ads))
	for i := range r.Ads {
		out[i].Ad = r.Ads[i]
		if r.Info != nil {
			out[i].Info = r.Info[i]
		}
	}
	return out
}

// phraseTest is the node-side check that turns broad-match candidates
// into exact or phrase matches (Section III-B: "only the logic to match
// the query against the phrase stored in the data node has to be
// modified"). It holds the query's token sequence, folded for Exact.
type phraseTest struct {
	kind Kind
	q    []string
}

func newPhraseTest(kind Kind, query string) phraseTest {
	q := textnorm.Tokenize(query)
	if kind == Exact {
		q = textnorm.FoldDuplicates(q)
	}
	return phraseTest{kind: kind, q: q}
}

// match reports whether a bid phrase passes: its folded tokens equal the
// query's (Exact), or its tokens occur contiguously in the query (Phrase).
func (p phraseTest) match(phrase string) bool {
	t := textnorm.Tokenize(phrase)
	if p.kind == Exact {
		return slices.Equal(textnorm.FoldDuplicates(t), p.q)
	}
	return textnorm.ContainsContiguous(p.q, t)
}

// appendMatches appends pointers to every record matching the query under
// kind to dst: base matches (minus tombstones) plus a linear scan of the
// delta, ordered by ID within the appended segment. queryWords must be the
// query's canonical word set. Exact match starts from the base's single
// lookup of that set, phrase and broad match from its subset enumeration;
// exact and phrase then keep only the records passing phraseTest. The
// returned pointers reference snapshot-internal storage; public entry
// points copy them out before returning.
//
// The base match charges b per probe and per scanned record and stops
// at node granularity once b is exhausted (a zero Budget never is); the
// delta overlay (bounded by MaxDeltaAds) is charged as one unit of its
// length and always scanned whole, so freshly inserted ads stay visible
// even in truncated answers.
func (s *snapshot) appendMatches(dst []*corpus.Ad, kind Kind, query string, queryWords []string, counters *costmodel.Counters, sc *core.Scratch, b *core.Budget) []*corpus.Ad {
	mark := len(dst)
	if kind == Exact {
		dst = s.base.AppendExactMatch(dst, query, counters, b)
	} else {
		dst = s.base.AppendBroadMatchBudget(dst, queryWords, counters, sc, b)
	}
	if len(s.tombs) > 0 {
		dst = s.filterTombs(dst, mark, counters)
	}
	if len(s.delta) > 0 {
		b.Charge(int64(len(s.delta)))
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
	if kind != Broad {
		p := newPhraseTest(kind, query)
		w := mark
		for _, m := range dst[mark:] {
			if p.match(m.Phrase) {
				dst[w] = m
				w++
			}
		}
		if counters != nil {
			counters.Matches -= int64(len(dst) - w)
		}
		clear(dst[w:])
		dst = dst[:w]
	}
	return dst
}

// Search is the one query path: it tokenizes query once, matches it under
// r.Kind (with r.Rewrite's variants) and r.Budget, and with a Selection
// runs the auction over the matches before anything is copied out, so
// only the winners are deep-copied (SelectAds, or SelectMatches for a
// rewritten search, over the full ID-ordered match list picks the same
// ads). Without a Selection, Ads holds every match in ID order.
func (v View) Search(query string, r Request) MatchResult {
	return v.search(nil, query, r)
}

// search is Search appending the copied-out ads to dst, the one body
// behind every View read entry point. Ads is nil when dst is nil and
// nothing is appended, except that a Selection always yields a non-nil
// slice (so a served auction with no winners encodes as []).
func (v View) search(dst []Ad, query string, r Request) MatchResult {
	sc := getScratch()
	sc.budget = core.Budget{MaxCost: r.Budget.MaxCost, Deadline: r.Budget.Deadline, Now: r.Budget.Now}
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	var res MatchResult
	rewrite := r.Rewrite && r.Kind == Broad
	if rewrite {
		res.Rewrite = v.appendRewrites(sc, r.Counters)
	} else {
		sc.matches = v.s.appendMatches(sc.matches[:0], r.Kind, query, sc.words, r.Counters, &sc.core, &sc.budget)
	}
	res.Matched = len(sc.matches)
	res.Truncated = sc.budget.Exhausted()
	res.CutoffApplied = sc.budget.CutoffApplied()
	res.CostSpent = sc.budget.Spent()
	copyOut, infos := sc.matches, sc.infos
	if sel := r.Selection; sel != nil {
		a := sc.startAuction(sel)
		var info MatchInfo
		for i, m := range sc.matches[:res.Matched] {
			if rewrite {
				info = sc.infos[i]
			}
			a.offer(m, sel.key(m, info, i))
		}
		// The winners go after the matches, in rank order.
		for _, k := range a.winners() {
			sc.matches = append(sc.matches, sc.matches[k.pos])
			if rewrite {
				sc.infos = append(sc.infos, sc.infos[k.pos])
			}
		}
		copyOut = sc.matches[res.Matched:]
		if rewrite {
			infos = sc.infos[res.Matched:]
		}
		if dst == nil {
			dst = make([]Ad, 0, len(copyOut))
		}
	}
	res.Ads = appendAdCopies(dst, copyOut)
	if rewrite {
		res.Info = slices.Clone(infos)
	}
	putScratch(sc)
	return res
}

// BroadMatchBudget is BroadMatch under a cost/deadline budget. On
// exhaustion it returns the partial matches accumulated so far with
// Truncated set; the partial set is ID-ordered and every element is a
// true match. A zero QueryBudget matches without bound (and still
// reports CutoffApplied, surfacing the MaxQueryWords drop).
func (v View) BroadMatchBudget(query string, qb QueryBudget) MatchResult {
	return v.Search(query, Request{Budget: qb})
}

// BroadMatchBudget is View.BroadMatchBudget on the current snapshot.
func (ix *Index) BroadMatchBudget(query string, qb QueryBudget) MatchResult {
	return ix.View().BroadMatchBudget(query, qb)
}
