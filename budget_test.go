package adindex

import (
	"runtime"
	"strings"
	"testing"

	"adindex/internal/corpus"
	"adindex/internal/workload"
)

// TestBroadMatchBudgetUnlimited: a zero budget returns exactly the
// plain results, never flagged truncated.
func TestBroadMatchBudgetUnlimited(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1500, Seed: 21})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 200, Seed: 22})
	ix := Build(c.Ads, Options{})
	for _, q := range wl.Queries {
		query := strings.Join(q.Words, " ")
		want := ix.BroadMatch(query)
		res := ix.BroadMatchBudget(query, QueryBudget{})
		if res.Truncated {
			t.Fatalf("query %q: unlimited budget truncated", query)
		}
		if len(res.Ads) != len(want) {
			t.Fatalf("query %q: budgeted %d ads, plain %d", query, len(res.Ads), len(want))
		}
		for i := range want {
			if res.Ads[i].ID != want[i].ID {
				t.Fatalf("query %q: ad %d: budgeted ID %d, plain %d", query, i, res.Ads[i].ID, want[i].ID)
			}
		}
	}
}

// TestBroadMatchBudgetTruncationSubset: under tight budgets, results
// are ID-ordered subsets of the full set, flagged truncated whenever
// short, with the spend reported.
func TestBroadMatchBudgetTruncationSubset(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2500, Seed: 23})
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 150, Seed: 24})
	ix := Build(c.Ads, Options{})
	truncations := 0
	for _, q := range wl.Queries {
		query := strings.Join(q.Words, " ")
		full := ix.BroadMatch(query)
		for _, max := range []int64{1, 8, 64} {
			res := ix.BroadMatchBudget(query, QueryBudget{MaxCost: max})
			j := 0
			for _, ad := range res.Ads {
				for j < len(full) && full[j].ID != ad.ID {
					j++
				}
				if j == len(full) {
					t.Fatalf("query %q budget %d: ad %d not in (or out of order vs) full result", query, max, ad.ID)
				}
				j++
			}
			if !res.Truncated && len(res.Ads) != len(full) {
				t.Fatalf("query %q budget %d: short result not flagged truncated", query, max)
			}
			if res.Truncated {
				truncations++
				if res.CostSpent <= 0 {
					t.Fatalf("query %q budget %d: truncated with CostSpent=%d", query, max, res.CostSpent)
				}
			}
		}
	}
	if truncations == 0 {
		t.Fatal("no truncations observed; test exercises nothing")
	}
}

// TestBroadMatchBudgetOverlay: delta-overlay inserts stay visible in
// truncated answers, and tombstoned base records never reappear.
func TestBroadMatchBudgetOverlay(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 800, Seed: 25})
	ix := Build(c.Ads, Options{MaxDeltaAds: 64})
	ix.Insert(NewAd(900001, "fresh overlay phrase", Meta{}))
	res := ix.BroadMatchBudget("some fresh overlay phrase here", QueryBudget{MaxCost: 1})
	found := false
	for _, ad := range res.Ads {
		if ad.ID == 900001 {
			found = true
		}
	}
	if !found {
		t.Fatal("overlay insert missing from budgeted result")
	}
	if !ix.Delete(900001, "fresh overlay phrase") {
		t.Fatal("delete failed")
	}
	res = ix.BroadMatchBudget("some fresh overlay phrase here", QueryBudget{MaxCost: 1})
	for _, ad := range res.Ads {
		if ad.ID == 900001 {
			t.Fatal("deleted ad resurfaced in budgeted result")
		}
	}
}

// TestBroadMatchBudgetCutoffSurfaced: a query longer than MaxQueryWords
// reports CutoffApplied even with no cost bound.
func TestBroadMatchBudgetCutoffSurfaced(t *testing.T) {
	ads := []Ad{NewAd(1, "alpha beta", Meta{})}
	ix := Build(ads, Options{MaxQueryWords: 2, MaxWords: 2})
	// Both query words are indexed; pad with more indexed words via extra ads.
	ix2 := Build([]Ad{
		NewAd(1, "w1 w2", Meta{}), NewAd(2, "w3 w4", Meta{}), NewAd(3, "w5 w6", Meta{}),
	}, Options{MaxQueryWords: 4, MaxWords: 2})
	res := ix2.BroadMatchBudget("w1 w2 w3 w4 w5 w6", QueryBudget{})
	if !res.CutoffApplied {
		t.Fatal("6 indexed words over MaxQueryWords=4: cutoff not surfaced")
	}
	res = ix.BroadMatchBudget("alpha beta", QueryBudget{})
	if res.CutoffApplied || res.Truncated {
		t.Fatalf("short query flagged: %+v", res)
	}
}

// TestSearchAllocsIndependentOfMatchCount: with a bounded auction only
// the winners are copied out, so a query matching 600 ads allocates no
// more often than one matching 5, and its bytes stay within a small
// multiple (8 winners against 5, plus pool refills after a collection),
// where copying every match out first costs bytes in proportion to the
// match count (here ~100 times as many).
func TestSearchAllocsIndependentOfMatchCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	var ads []Ad
	for i := 0; i < 600; i++ {
		meta := Meta{BidMicros: int64(1 + i%97), ClickRate: uint16(i % 7)}
		if i%5 == 0 {
			meta.Exclusions = []string{"free shipping"}
		}
		ads = append(ads, NewAd(uint64(i+1), "running shoes", meta))
	}
	for i := 0; i < 5; i++ {
		ads = append(ads, NewAd(uint64(1000+i), "hiking boots", Meta{BidMicros: int64(10 + i)}))
	}
	view := Build(ads, Options{}).View()
	sel := &Selection{MaxResults: 8}
	search := func(q string) func() {
		return func() { view.Search(q, QueryBudget{}, sel, nil) }
	}
	big, small := search("red running shoes"), search("red hiking boots")
	if m := view.Search("red running shoes", QueryBudget{}, sel, nil).Matched; m != 600 {
		t.Fatalf("big query matched %d, want 600", m)
	}
	if a, b := testing.AllocsPerRun(200, big), testing.AllocsPerRun(200, small); a > b {
		t.Fatalf("600 matches: %.1f allocs/op, 5 matches: %.1f allocs/op", a, b)
	}
	if a, b := bytesPerRun(200, big), bytesPerRun(200, small); a > 4*b {
		t.Fatalf("600 matches: %d B/op, 5 matches: %d B/op", a, b)
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm the scratch pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
