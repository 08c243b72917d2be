package adindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"adindex/internal/corpus"
)

// Differential tests pinning the compressed B^sig/B^off snapshot against
// the hash-table index it replaces: over randomized corpora the two must
// return identical broad-match results for every query, across several
// signature suffix widths. The corpora deliberately stress the spots
// where the two code paths diverge structurally — exclusion metadata,
// duplicate-folded word sets, and phrases at the max_words locator
// boundary (where sets stop being fully indexable and locator selection
// kicks in).

const (
	diffCorpora    = 30
	diffMaxWords   = 4 // index MaxWords: phrases at/over this hit the locator boundary
	diffNumQueries = 40
)

// diffCorpus builds one adversarial corpus: a mix of short phrases,
// phrases with duplicated words, exact-boundary and over-boundary
// phrases, and exclusion metadata (single words and multi-word phrases
// drawn from the query vocabulary, so they hit queries) with few
// distinct bids and click rates, so auction ties are common; some ads are
// duplicates of earlier ones under new IDs. The first half is built into
// the base and the rest inserted into the overlay, and a slice of the
// corpus is deleted again, so queries see base tombstones and overlay
// inserts alike.
func diffCorpus(seed int64) (*Index, []corpus.Ad, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	vocab := corpus.MakeVocabulary(30)
	pick := func() string { return vocab[rng.Intn(len(vocab))] }

	var ads []corpus.Ad
	id := uint64(0)
	add := func(phrase string, meta corpus.Meta) {
		id++
		ads = append(ads, corpus.NewAd(id, phrase, meta))
	}

	for i := 0; i < 40; i++ {
		var toks []string
		switch rng.Intn(4) {
		case 0: // short phrase, 1-3 words
			for n := 1 + rng.Intn(3); n > 0; n-- {
				toks = append(toks, pick())
			}
		case 1: // duplicated-word phrase ("w w x" folds to {w_w, x})
			w := pick()
			toks = append(toks, w, w)
			for n := rng.Intn(2); n > 0; n-- {
				toks = append(toks, pick())
			}
		case 2: // exactly at the max_words locator boundary
			for n := diffMaxWords; n > 0; n-- {
				toks = append(toks, pick())
			}
		default: // 1-3 words over the boundary
			for n := diffMaxWords + 1 + rng.Intn(3); n > 0; n-- {
				toks = append(toks, pick())
			}
		}
		meta := corpus.Meta{BidMicros: int64(1+rng.Intn(5)) * 1000, ClickRate: uint16(rng.Intn(3))}
		switch rng.Intn(6) {
		case 0, 1:
			meta.Exclusions = []string{pick()}
		case 2:
			meta.Exclusions = []string{pick() + " " + pick(), pick()}
		}
		add(strings.Join(toks, " "), meta)
	}
	// Duplicate word sets under fresh IDs: identical phrase, different ad.
	for i := 0; i < 6; i++ {
		src := ads[rng.Intn(len(ads))]
		add(src.Phrase, corpus.Meta{BidMicros: int64(1+rng.Intn(5)) * 1000})
	}

	ix := Build(ads[:len(ads)/2], Options{MaxWords: diffMaxWords})
	for _, ad := range ads[len(ads)/2:] {
		ix.Insert(ad)
	}
	// Delete a slice: base records become tombstones, overlay ads leave.
	live := ads[:0:0]
	for i := range ads {
		if rng.Intn(6) == 0 {
			ix.Delete(ads[i].ID, ads[i].Phrase)
		} else {
			live = append(live, ads[i])
		}
	}
	return ix, live, rng
}

// diffQueries derives queries that hit the corpus: bid phrases verbatim
// (including over-boundary and duplicated-word ones), widened phrases,
// and random word soup.
func diffQueries(ads []corpus.Ad, rng *rand.Rand) []string {
	vocab := corpus.MakeVocabulary(30)
	qs := make([]string, 0, diffNumQueries)
	for len(qs) < diffNumQueries {
		ad := ads[rng.Intn(len(ads))]
		switch rng.Intn(3) {
		case 0: // the bid phrase itself
			qs = append(qs, ad.Phrase)
		case 1: // widened: phrase plus 1-3 extra words
			toks := strings.Fields(ad.Phrase)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
			rng.Shuffle(len(toks), func(a, b int) { toks[a], toks[b] = toks[b], toks[a] })
			qs = append(qs, strings.Join(toks, " "))
		default: // random soup, 1-6 words
			var toks []string
			for n := 1 + rng.Intn(6); n > 0; n-- {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
			qs = append(qs, strings.Join(toks, " "))
		}
	}
	return qs
}

func sortAds(ads []Ad) {
	sort.SliceStable(ads, func(i, j int) bool {
		if ads[i].ID != ads[j].ID {
			return ads[i].ID < ads[j].ID
		}
		return ads[i].SetKey() < ads[j].SetKey()
	})
}

func TestDifferentialCompressedVsHash(t *testing.T) {
	suffixWidths := []int{0, 4, 8, 12} // 0 = auto-select
	for seed := int64(0); seed < diffCorpora; seed++ {
		ix, live, rng := diffCorpus(seed)
		queries := diffQueries(live, rng)
		for _, bits := range suffixWidths {
			snap, err := ix.Snapshot(bits)
			if err != nil {
				t.Fatalf("seed %d bits %d: Snapshot: %v", seed, bits, err)
			}
			for _, q := range queries {
				want := ix.BroadMatch(q)
				sortAds(want)
				got, err := snap.BroadMatch(q)
				if err != nil {
					t.Fatalf("seed %d bits %d: compressed BroadMatch(%q): %v", seed, bits, q, err)
				}
				sortAds(got)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d bits %d: BroadMatch(%q) diverges:\ncompressed %v\nhash       %v",
						seed, bits, q, summarize(got), summarize(want))
				}
				// Exclusion metadata must survive compression: the auction
				// over both result sets picks identical winners.
				selWant := SelectAds(q, want, Selection{})
				selGot := SelectAds(q, got, Selection{})
				if !reflect.DeepEqual(selGot, selWant) {
					t.Fatalf("seed %d bits %d: auction over compressed results diverges for %q",
						seed, bits, q)
				}
			}
		}
	}
}

// TestDifferentialCompressedExactMatch pins the exact-match path, which
// in the compressed index is reconstructed by filtering broad-match
// candidates rather than consulting a per-set directory.
func TestDifferentialCompressedExactMatch(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ix, live, _ := diffCorpus(seed + 1000)
		snap, err := ix.Snapshot(0)
		if err != nil {
			t.Fatalf("seed %d: Snapshot: %v", seed, err)
		}
		for i := range live {
			q := live[i].Phrase
			want := ix.ExactMatch(q)
			sortAds(want)
			got, err := snap.ExactMatch(q)
			if err != nil {
				t.Fatalf("seed %d: compressed ExactMatch(%q): %v", seed, q, err)
			}
			sortAds(got)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: ExactMatch(%q) diverges:\ncompressed %v\nhash       %v",
					seed, q, summarize(got), summarize(want))
			}
		}
	}
}

func summarize(ads []Ad) []string {
	out := make([]string, len(ads))
	for i := range ads {
		out[i] = fmt.Sprintf("%d:%q", ads[i].ID, ads[i].Phrase)
	}
	return out
}

// TestDifferentialSearchVsSelectAds: View.Search, which runs the auction
// over match pointers before copy-out, picks exactly the winners SelectAds
// picks from BroadMatchBudget's full copied list, under every selection
// shape and budget, over base tombstones, overlay inserts, exclusions that
// hit the query, budget truncation and the MaxQueryWords cutoff.
func TestDifferentialSearchVsSelectAds(t *testing.T) {
	vocab := corpus.MakeVocabulary(30)
	sels := []Selection{
		{},
		{MaxResults: 1},
		{MaxResults: 3, RankByExpectedRevenue: true},
		{MaxResults: 8, MinBidMicros: 3000},
		{MaxResults: 1000, ExcludeShown: map[uint64]bool{3: true, 7: true, 11: true}},
	}
	budgets := []int64{0, 1, 4, 16}
	tombs, delta, truncated, cut := 0, 0, 0, 0
	for seed := int64(0); seed < diffCorpora; seed++ {
		ix, live, rng := diffCorpus(seed)
		s := ix.snap.Load()
		tombs += len(s.tombs)
		delta += len(s.delta)
		queries := diffQueries(live, rng)
		// Long queries: past MaxQueryWords (12), so the cutoff drops words.
		for i := 0; i < 3; i++ {
			toks := append([]string(nil), vocab[:13+i]...)
			rng.Shuffle(len(toks), func(a, b int) { toks[a], toks[b] = toks[b], toks[a] })
			queries = append(queries, strings.Join(toks, " "))
		}
		view := ix.View()
		for _, q := range queries {
			for _, maxCost := range budgets {
				qb := QueryBudget{MaxCost: maxCost}
				full := view.BroadMatchBudget(q, qb)
				if full.Matched != len(full.Ads) {
					t.Fatalf("seed %d %q budget %d: Matched %d, %d ads", seed, q, maxCost, full.Matched, len(full.Ads))
				}
				if full.Truncated {
					truncated++
				}
				if full.CutoffApplied {
					cut++
				}
				for _, sel := range sels {
					got := view.Search(q, qb, &sel, nil)
					want := SelectAds(q, full.Ads, sel)
					if !reflect.DeepEqual(got.Ads, want) {
						t.Fatalf("seed %d %q budget %d %+v: Search winners %v, SelectAds %v",
							seed, q, maxCost, sel, summarize(got.Ads), summarize(want))
					}
					if got.Matched != full.Matched || got.Truncated != full.Truncated ||
						got.CutoffApplied != full.CutoffApplied || got.CostSpent != full.CostSpent {
						t.Fatalf("seed %d %q budget %d %+v: Search reports %d/%v/%v/%d, BroadMatchBudget %d/%v/%v/%d",
							seed, q, maxCost, sel, got.Matched, got.Truncated, got.CutoffApplied, got.CostSpent,
							full.Matched, full.Truncated, full.CutoffApplied, full.CostSpent)
					}
				}
			}
		}
	}
	if tombs == 0 || delta == 0 || truncated == 0 || cut == 0 {
		t.Fatalf("corpora missed a case: %d tombstones, %d overlay ads, %d truncated, %d cut queries",
			tombs, delta, truncated, cut)
	}
}
