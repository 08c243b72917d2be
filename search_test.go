package adindex

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// baseAndOverlay builds ads twice: once into the base, once inserted
// into the delta overlay of an empty index, so a check run on both covers
// the base lookup and the overlay scan of one search.
func baseAndOverlay(ads []Ad, opts Options) map[string]*Index {
	overlay := New(opts)
	for _, ad := range ads {
		overlay.Insert(ad)
	}
	return map[string]*Index{"base": Build(ads, opts), "overlay": overlay}
}

// TestPhraseMatchCases: phrase match keeps token order and contiguity,
// over base and overlay alike.
func TestPhraseMatchCases(t *testing.T) {
	ads := []Ad{
		NewAd(1, "used books", Meta{}),
		NewAd(2, "books used", Meta{}),
		NewAd(3, "cheap books", Meta{}),
	}
	for name, ix := range baseAndOverlay(ads, Options{}) {
		view := ix.View()
		for _, c := range []struct {
			q    string
			want []uint64
		}{
			{"buy used books online", []uint64{1}}, // order must be respected
			{"books used", []uint64{2}},
			{"used cheap books", []uint64{3}}, // only "cheap books" is contiguous
			{"", nil},
		} {
			got := view.PhraseMatch(c.q)
			if c.want == nil && got != nil {
				t.Errorf("%s: PhraseMatch(%q) = %v, want nil", name, c.q, idsOf(got))
			} else if c.want != nil && !reflect.DeepEqual(idsOf(got), c.want) {
				t.Errorf("%s: PhraseMatch(%q) = %v, want %v", name, c.q, idsOf(got), c.want)
			}
		}
	}
}

// TestPhraseMatchCounted: a phrase search counts one query and, of the
// broad-match candidates it filters, only the phrase matches.
func TestPhraseMatchCounted(t *testing.T) {
	ads := []Ad{
		NewAd(1, "used books", Meta{}),
		NewAd(2, "books used", Meta{}),
		NewAd(3, "rare maps", Meta{}),
	}
	for name, ix := range baseAndOverlay(ads, Options{}) {
		var c Counters
		res := ix.View().Search("buy used books here", Request{Kind: Phrase, Counters: &c})
		if !reflect.DeepEqual(idsOf(res.Ads), []uint64{1}) || res.Matched != 1 {
			t.Fatalf("%s: got %v (matched %d), want [1]", name, idsOf(res.Ads), res.Matched)
		}
		if c.Queries != 1 || c.Matches != 1 || c.PhrasesChecked == 0 {
			t.Errorf("%s: counters %+v, want 1 query, 1 match, phrases checked", name, c)
		}
		if got := ix.View().Search("zzz yyy", Request{Kind: Phrase, Counters: &c}).Ads; got != nil {
			t.Errorf("%s: unknown words matched %v", name, idsOf(got))
		}
	}
}

// TestMatchTypeHierarchy: ExactMatch ⊆ PhraseMatch ⊆ BroadMatch for any
// query (each adds a constraint), over a corpus split between base and
// overlay.
func TestMatchTypeHierarchy(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1000, Seed: 113})
	ix := Build(c.Ads[:900], Options{})
	for _, ad := range c.Ads[900:] {
		ix.Insert(ad)
	}
	view := ix.View()
	exacts, phrases := 0, 0
	for trial := 0; trial < 150; trial++ {
		query := c.Ads[(trial*677)%len(c.Ads)].Phrase
		if trial%2 == 0 {
			query = "prefixword " + query + " suffixword"
		}
		broad := idSetOf(view.BroadMatch(query))
		phrase := idSetOf(view.PhraseMatch(query))
		exact := idSetOf(view.ExactMatch(query))
		exacts += len(exact)
		phrases += len(phrase)
		for id := range exact {
			if !phrase[id] {
				t.Fatalf("exact ⊄ phrase for %q (id %d)", query, id)
			}
		}
		for id := range phrase {
			if !broad[id] {
				t.Fatalf("phrase ⊄ broad for %q (id %d)", query, id)
			}
		}
	}
	if exacts == 0 || phrases <= exacts {
		t.Fatalf("hierarchy untested: %d exact, %d phrase matches", exacts, phrases)
	}
}

func idSetOf(ads []Ad) map[uint64]bool {
	out := make(map[uint64]bool, len(ads))
	for i := range ads {
		out[ads[i].ID] = true
	}
	return out
}

// TestSearchRewriteVsSelectMatches: a rewritten Search runs the
// discount-aware auction before copy-out and picks exactly the winners
// SelectMatches picks from BroadMatchRewrite's full list, with Info
// aligned to the winners; without a Selection it returns that list.
func TestSearchRewriteVsSelectMatches(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 400, Seed: 97})
	ix := Build(c.Ads[:300], Options{Rewrite: &RewriteOptions{}})
	for _, ad := range c.Ads[300:] {
		ix.Insert(ad)
	}
	view := ix.View()
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 60, Seed: 98})
	sels := []Selection{{}, {MaxResults: 1}, {MaxResults: 3, RankByExpectedRevenue: true}, {MinBidMicros: 200000}}
	rewritten := 0
	for i, q := range wl.Queries {
		words := append([]string(nil), q.Words...)
		if w := words[0]; len(w) > 3 && i%2 == 0 {
			words[0] = w[:1] + w[2:] // drop a letter: a fuzzy rewrite
		}
		query := strings.Join(words, " ")
		full, stats := view.BroadMatchRewrite(query)
		rewritten += stats.FuzzyHits + stats.SynonymHits
		res := view.Search(query, Request{Rewrite: true})
		if !reflect.DeepEqual(res.Matches(), full) || res.Rewrite != stats || res.Matched != len(full) {
			t.Fatalf("%q: Search(Rewrite) = %v %+v, BroadMatchRewrite %v %+v",
				query, matchIDs(res.Matches()), res.Rewrite, matchIDs(full), stats)
		}
		for _, sel := range sels {
			got := view.Search(query, Request{Rewrite: true, Selection: &sel})
			want := SelectMatches(query, full, sel)
			if len(got.Info) != len(got.Ads) || !reflect.DeepEqual(matchIDs(got.Matches()), matchIDs(want)) ||
				(len(want) > 0 && !reflect.DeepEqual(got.Matches(), want)) {
				t.Fatalf("%q %+v: Search winners %v, SelectMatches %v",
					query, sel, matchIDs(got.Matches()), matchIDs(want))
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("no query reached an ad through a rewrite")
	}
}

// TestSearchBudgetEveryKind: the cost budget bounds exact, phrase and
// rewritten searches like broad ones; a truncated answer is flagged, a
// subset of the unbounded one.
func TestSearchBudgetEveryKind(t *testing.T) {
	var ads []Ad
	words := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa")
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			ads = append(ads, NewAd(uint64(len(ads)+1), words[i]+" "+words[j], Meta{BidMicros: 100}))
		}
	}
	ix := Build(ads, Options{Rewrite: &RewriteOptions{}})
	view := ix.View()
	long := strings.Join(words, " ")
	for _, r := range []Request{
		{Kind: Broad},
		{Kind: Phrase},
		{Kind: Broad, Rewrite: true},
	} {
		name := fmt.Sprintf("kind %d rewrite %v", r.Kind, r.Rewrite)
		full := view.Search(long, r)
		if full.Truncated || full.Matched == 0 {
			t.Fatalf("%s: unbounded search truncated %v, matched %d", name, full.Truncated, full.Matched)
		}
		r.Budget = QueryBudget{MaxCost: 8}
		cut := view.Search(long, r)
		if !cut.Truncated || cut.Matched >= full.Matched {
			t.Fatalf("%s: budget 8 truncated %v, matched %d of %d", name, cut.Truncated, cut.Matched, full.Matched)
		}
		in := idSetOf(full.Ads)
		for _, ad := range cut.Ads {
			if !in[ad.ID] {
				t.Fatalf("%s: truncated answer holds ad %d outside the full answer", name, ad.ID)
			}
		}
	}
	// Exact match is one lookup plus one node: a one-unit budget pays the
	// lookup and trips on the node, which is still scanned whole.
	if res := view.Search("alpha beta", Request{Kind: Exact, Budget: QueryBudget{MaxCost: 100}}); res.Truncated || res.Matched != 1 || res.CostSpent == 0 {
		t.Fatalf("exact under a roomy budget: %+v", res)
	}
	if res := view.Search("alpha beta", Request{Kind: Exact, Budget: QueryBudget{MaxCost: 1}}); !res.Truncated || res.Matched != 1 {
		t.Fatalf("exact under a one-unit budget: matched %d truncated %v", res.Matched, res.Truncated)
	}
}
