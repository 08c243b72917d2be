package adindex

import (
	"slices"
	"time"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// QueryBudget bounds the work one broad match may perform: MaxCost in
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

// MatchResult is the outcome of a budgeted broad match. Truncated
// results are always a correct prefix of the work: every match is fully
// verified and, without a Selection, Ads is ID-ordered, so a truncated
// answer is a subset of the full answer — never wrong, only incomplete.
type MatchResult struct {
	// Ads holds every match in ID order, or with a Selection the auction
	// winners in rank order.
	Ads []Ad
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
}

// appendBroadMatchBudget is appendBroadMatch under a budget: the base
// match charges per probe and per scanned record and stops at node
// granularity when exhausted; the delta overlay (bounded by
// MaxDeltaAds) is charged as one unit of its length and always scanned
// whole, so freshly inserted ads stay visible even in truncated
// answers.
func (s *snapshot) appendBroadMatchBudget(dst []*corpus.Ad, queryWords []string, counters *costmodel.Counters, sc *core.Scratch, b *core.Budget) []*corpus.Ad {
	mark := len(dst)
	dst = s.base.AppendBroadMatchBudget(dst, queryWords, counters, sc, b)
	if len(s.tombs) > 0 {
		dst = s.filterTombs(dst, mark, counters)
	}
	if len(s.delta) > 0 {
		b.Charge(int64(len(s.delta)))
		n := len(dst)
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

// Search is the broad-match query path: it tokenizes query once, matches
// it under qb, and with a non-nil sel runs the auction over the matches
// before anything is copied out, so only the winners are deep-copied
// (SelectAds over the full ID-ordered match list picks the same ads).
// With a nil sel, Ads holds every match in ID order. counters, when
// non-nil, accumulates the match's memory-access accounting.
func (v View) Search(query string, qb QueryBudget, sel *Selection, counters *Counters) MatchResult {
	sc := getScratch()
	sc.budget = core.Budget{MaxCost: qb.MaxCost, Deadline: qb.Deadline, Now: qb.Now}
	sc.words = textnorm.AppendWordSet(sc.words[:0], query)
	sc.matches = v.s.appendBroadMatchBudget(sc.matches[:0], sc.words, counters, &sc.core, &sc.budget)
	res := MatchResult{
		Matched:       len(sc.matches),
		Truncated:     sc.budget.Exhausted(),
		CutoffApplied: sc.budget.CutoffApplied(),
		CostSpent:     sc.budget.Spent(),
	}
	if sel == nil {
		res.Ads = copyMatches(sc.matches)
	} else {
		a := sc.startAuction(sel)
		for i, m := range sc.matches[:res.Matched] {
			a.offer(m, rankKey{score: sel.score(&m.Meta), id: m.ID, pos: i})
		}
		// The winners' pointers go after the matches, in rank order.
		for _, k := range a.winners() {
			sc.matches = append(sc.matches, sc.matches[k.pos])
		}
		res.Ads = appendAdCopies(make([]Ad, 0, len(sc.matches)-res.Matched), sc.matches[res.Matched:])
	}
	sc.budget = core.Budget{} // drop the caller's clock func before pooling
	putScratch(sc)
	return res
}

// BroadMatchBudget is BroadMatch under a cost/deadline budget. On
// exhaustion it returns the partial matches accumulated so far with
// Truncated set; the partial set is ID-ordered and every element is a
// true match. A zero QueryBudget matches without bound (and still
// reports CutoffApplied, surfacing the MaxQueryWords drop).
func (v View) BroadMatchBudget(query string, qb QueryBudget) MatchResult {
	return v.Search(query, qb, nil, nil)
}

// BroadMatchBudgetCounted is BroadMatchBudget with memory-access
// accounting.
func (v View) BroadMatchBudgetCounted(query string, qb QueryBudget, counters *Counters) MatchResult {
	return v.Search(query, qb, nil, counters)
}

// BroadMatchBudget is View.BroadMatchBudget on the current snapshot.
func (ix *Index) BroadMatchBudget(query string, qb QueryBudget) MatchResult {
	return ix.View().BroadMatchBudget(query, qb)
}
