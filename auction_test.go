package adindex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"adindex/internal/textnorm"
)

func TestSelectAdsMultiWordExclusion(t *testing.T) {
	ads := []Ad{
		NewAd(1, "shoes", Meta{BidMicros: 100, Exclusions: []string{"free shipping"}}),
		NewAd(2, "shoes", Meta{BidMicros: 90}),
	}
	// Any word of a multi-word exclusion phrase appearing in the query
	// triggers the exclusion.
	got := idsOf(SelectAds("shoes with shipping", ads, Selection{}))
	if !reflect.DeepEqual(got, []uint64{2}) {
		t.Errorf("multi-word exclusion: %v", got)
	}
	got = idsOf(SelectAds("blue shoes", ads, Selection{}))
	if !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("no trigger: %v", got)
	}
}

func TestSelectAdsTieBreakByID(t *testing.T) {
	ads := []Ad{
		NewAd(9, "x", Meta{BidMicros: 100}),
		NewAd(3, "x", Meta{BidMicros: 100}),
		NewAd(5, "x", Meta{BidMicros: 100}),
	}
	got := idsOf(SelectAds("x", ads, Selection{}))
	if !reflect.DeepEqual(got, []uint64{3, 5, 9}) {
		t.Errorf("tie break: %v", got)
	}
}

func TestSelectAdsEmptyInputs(t *testing.T) {
	if got := SelectAds("query", nil, Selection{}); len(got) != 0 {
		t.Errorf("nil matches: %v", got)
	}
	ads := []Ad{NewAd(1, "x", Meta{BidMicros: 1})}
	if got := SelectAds("", ads, Selection{}); len(got) != 1 {
		t.Errorf("empty query should not exclude: %v", got)
	}
}

func TestSelectAdsMaxResultsZeroMeansAll(t *testing.T) {
	ads := []Ad{
		NewAd(1, "x", Meta{BidMicros: 1}),
		NewAd(2, "x", Meta{BidMicros: 2}),
	}
	if got := SelectAds("x", ads, Selection{MaxResults: 0}); len(got) != 2 {
		t.Errorf("MaxResults 0: %v", idsOf(got))
	}
}

// Property: SelectAds output is always a subset of its input, ordered by
// the requested score descending, and within MaxResults.
func TestSelectAdsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		ads := make([]Ad, n)
		inputIDs := make(map[uint64]bool, n)
		for i := range ads {
			ads[i] = NewAd(uint64(i+1), "thing", Meta{
				BidMicros: int64(rng.Intn(1000)),
				ClickRate: uint16(rng.Intn(100)),
			})
			inputIDs[ads[i].ID] = true
		}
		sel := Selection{
			MinBidMicros:          int64(rng.Intn(500)),
			MaxResults:            rng.Intn(5),
			RankByExpectedRevenue: rng.Intn(2) == 0,
		}
		out := SelectAds("some thing", ads, sel)
		if sel.MaxResults > 0 && len(out) > sel.MaxResults {
			return false
		}
		score := func(a *Ad) int64 {
			if sel.RankByExpectedRevenue {
				return a.Meta.BidMicros * int64(a.Meta.ClickRate)
			}
			return a.Meta.BidMicros
		}
		for i := range out {
			if !inputIDs[out[i].ID] {
				return false
			}
			if out[i].Meta.BidMicros < sel.MinBidMicros {
				return false
			}
			if i > 0 && score(&out[i]) > score(&out[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// referenceSelectAds is SelectAds as it was before the bounded top-K
// selector: filter every ad, stable-sort the survivors by (score desc,
// ID asc), then truncate. Kept as the reference the selector is pinned
// against.
func referenceSelectAds(query string, matches []Ad, sel Selection) []Ad {
	qWords := textnorm.WordSet(query)
	out := make([]Ad, 0, len(matches))
	for _, ad := range matches {
		if ad.Meta.BidMicros < sel.MinBidMicros || sel.ExcludeShown[ad.ID] || referenceExcluded(&ad, qWords) {
			continue
		}
		out = append(out, ad)
	}
	score := func(a *Ad) int64 {
		if sel.RankByExpectedRevenue {
			return a.Meta.BidMicros * int64(a.Meta.ClickRate)
		}
		return a.Meta.BidMicros
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(&out[i]), score(&out[j])
		if si != sj {
			return si > sj
		}
		return out[i].ID < out[j].ID
	})
	if sel.MaxResults > 0 && len(out) > sel.MaxResults {
		out = out[:sel.MaxResults]
	}
	return out
}

// referenceSelectMatches is the matching reference for SelectMatches:
// discounted scores, ties broken by ID and then rewrite penalty.
func referenceSelectMatches(query string, matches []Match, sel Selection) []Match {
	qWords := textnorm.WordSet(query)
	out := make([]Match, 0, len(matches))
	for _, m := range matches {
		if m.Meta.BidMicros < sel.MinBidMicros || sel.ExcludeShown[m.ID] || referenceExcluded(&m.Ad, qWords) {
			continue
		}
		out = append(out, m)
	}
	score := func(m *Match) int64 {
		s := m.Meta.BidMicros
		if sel.RankByExpectedRevenue {
			s *= int64(m.Meta.ClickRate)
		}
		return s * RankDiscountPercent(m.Info) / 100
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(&out[i]), score(&out[j])
		if si != sj {
			return si > sj
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Info.Penalty() < out[j].Info.Penalty()
	})
	if sel.MaxResults > 0 && len(out) > sel.MaxResults {
		out = out[:sel.MaxResults]
	}
	return out
}

func referenceExcluded(ad *Ad, qWords []string) bool {
	for _, e := range ad.Meta.Exclusions {
		for _, w := range textnorm.WordSet(e) {
			if i := sort.SearchStrings(qWords, w); i < len(qWords) && qWords[i] == w {
				return true
			}
		}
	}
	return false
}

// TestSelectAdsMatchesReference pins SelectAds and SelectMatches to the
// stable-sort references over random inputs built to hit every tie and
// filter: few distinct bids and click rates (equal scores), duplicate IDs
// in one input, exclusions on query and non-query words, MaxResults 0,
// below and above the input length, both ranking modes, a bid floor and
// a shown-ad set.
func TestSelectAdsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	words := []string{"red", "blue", "shoes", "boots", "cheap", "free"}
	infos := []MatchInfo{{Type: MatchExact}, {Type: MatchSynonym}, {Type: MatchFuzzy, Distance: 1}, {Type: MatchFuzzy, Distance: 2}}
	for iter := 0; iter < 3000; iter++ {
		n := rng.Intn(40)
		ads := make([]Ad, n)
		for i := range ads {
			meta := Meta{BidMicros: int64(rng.Intn(4)) * 100, ClickRate: uint16(rng.Intn(3))}
			switch rng.Intn(4) {
			case 0:
				meta.Exclusions = []string{words[rng.Intn(len(words))]}
			case 1:
				meta.Exclusions = []string{"Free Shipping", words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]}
			}
			ads[i] = NewAd(uint64(1+rng.Intn(n+1)), "shoes", meta)
		}
		if rng.Intn(2) == 0 {
			sort.SliceStable(ads, func(i, j int) bool { return ads[i].ID < ads[j].ID })
		}
		sel := Selection{
			MinBidMicros:          int64(rng.Intn(3)) * 100,
			MaxResults:            rng.Intn(n + 3),
			RankByExpectedRevenue: rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			sel.ExcludeShown = map[uint64]bool{uint64(1 + rng.Intn(n+1)): true}
		}
		query := words[rng.Intn(len(words))] + " shoes " + words[rng.Intn(len(words))]

		if got, want := SelectAds(query, ads, sel), referenceSelectAds(query, ads, sel); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: SelectAds(%q, %+v) = %v, reference %v", iter, query, sel, idsOf(got), idsOf(want))
		}
		matches := make([]Match, n)
		for i := range ads {
			matches[i] = Match{Ad: ads[i], Info: infos[rng.Intn(len(infos))]}
		}
		if got, want := SelectMatches(query, matches, sel), referenceSelectMatches(query, matches, sel); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: SelectMatches(%q, %+v) = %v, reference %v", iter, query, sel, matchIDs(got), matchIDs(want))
		}
	}
}
