package server

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"adindex"
)

// pairCatalog holds one ad per pair of ten words, so a query of all ten
// words broad-matches 45 ads, phrase-matches the 9 adjacent pairs and
// costs far more than a tight budget to enumerate.
func pairCatalog() (ads []adindex.Ad, long string) {
	words := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa")
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			ads = append(ads, adindex.NewAd(uint64(len(ads)+1), words[i]+" "+words[j], adindex.Meta{BidMicros: 100}))
		}
	}
	return ads, strings.Join(words, " ")
}

// TestBudgetEveryKind: the query budget, the truncation quarantine strike
// and the never-cache-a-truncated-answer rule apply to phrase match and to
// rewritten broad match as they do to plain broad match.
func TestBudgetEveryKind(t *testing.T) {
	ads, long := pairCatalog()
	ix := adindex.Build(ads, adindex.Options{Rewrite: &adindex.RewriteOptions{}})
	s := New(ix, Config{QueryBudget: 8, QuarantineTTL: time.Minute})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	base := "http://" + s.Addr()
	q := strings.ReplaceAll(long, " ", "+")

	for _, params := range []string{"type=phrase", "rewrite=on"} {
		url := base + "/search?q=" + q + "&" + params
		for strike := 1; strike <= DefaultQuarantineStrikes; strike++ {
			var out searchResponse
			getJSON(t, url, &out)
			if !out.Truncated || out.Cached || out.CostSpent == 0 {
				t.Fatalf("%s strike %d: truncated %v cached %v cost %d, want a truncated uncached answer",
					params, strike, out.Truncated, out.Cached, out.CostSpent)
			}
		}
		if code := searchStatus(t, base, "q="+q+"&"+params); code != http.StatusServiceUnavailable {
			t.Fatalf("%s: fingerprint not quarantined after %d truncations: status %d",
				params, DefaultQuarantineStrikes, code)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("%d truncated answers cached", n)
	}
	if got := s.metrics.BudgetTruncated.Load(); got != 2*DefaultQuarantineStrikes {
		t.Fatalf("BudgetTruncated = %d, want %d", got, 2*DefaultQuarantineStrikes)
	}
}

// TestTrackCostEveryKind: under TrackCost, exact and phrase queries land
// in the adapt.query_cost histogram like broad ones.
func TestTrackCostEveryKind(t *testing.T) {
	_, _, base := startTestServer(t, Config{TrackCost: true, CacheEntries: -1})
	search(t, base, "used books", "exact")
	search(t, base, "buy cheap used books", "phrase")
	var snap MetricsSnapshot
	getJSON(t, base+"/metrics", &snap)
	if snap.Adapt == nil || snap.Adapt.QueryCost == nil || snap.Adapt.QueryCost.Count != 2 {
		t.Fatalf("query cost histogram = %+v, want 2 samples", snap.Adapt)
	}
}
