package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/textnorm"
)

// Broad match is monotone in the query: adding words can only add matches.
// This is the semantic foundation of re-mapping (a superset query reaches
// every node a subset query reaches), so it must survive every layout.
func TestBroadMatchMonotoneQuick(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 800, Seed: 111})
	ix := New(c.Ads, Options{MaxQueryWords: 64})
	vocab := c.Vocabulary()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var qw []string
		for i := 1 + rng.Intn(4); i > 0; i-- {
			qw = append(qw, vocab[rng.Intn(len(vocab))])
		}
		q1 := textnorm.CanonicalSet(qw)
		q2 := textnorm.CanonicalSet(append(qw, vocab[rng.Intn(len(vocab))]))
		m1 := ix.BroadMatch(q1, nil)
		m2 := ix.BroadMatch(q2, nil)
		// Every ID in m1 must appear in m2.
		ids2 := make(map[uint64]bool, len(m2))
		for _, a := range m2 {
			ids2[a.ID] = true
		}
		for _, a := range m1 {
			if !ids2[a.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A query containing an ad's full word set always matches that ad
// (completeness), and a query equal to a strict subset never does
// (soundness), regardless of re-mapping.
func TestBroadMatchSoundCompleteQuick(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 600, Seed: 112})
	ix := New(c.Ads, Options{MaxQueryWords: 64})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ad := &c.Ads[rng.Intn(len(c.Ads))]
		// Completeness: the ad's own phrase matches it.
		found := false
		for _, m := range ix.BroadMatch(ad.Words, nil) {
			if m.ID == ad.ID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		// Soundness: drop one word — the ad must no longer match.
		if len(ad.Words) > 1 {
			sub := make([]string, 0, len(ad.Words)-1)
			drop := rng.Intn(len(ad.Words))
			for i, w := range ad.Words {
				if i != drop {
					sub = append(sub, w)
				}
			}
			for _, m := range ix.BroadMatch(sub, nil) {
				if m.ID == ad.ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ExactMatch ⊆ BroadMatch for any query (exact adds a constraint; the
// root package's TestMatchTypeHierarchy checks phrase match between them).
func TestMatchTypeHierarchy(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 1000, Seed: 113})
	ix := New(c.Ads, Options{})
	rng := rand.New(rand.NewSource(114))
	for trial := 0; trial < 150; trial++ {
		ad := &c.Ads[rng.Intn(len(c.Ads))]
		query := ad.Phrase
		if trial%2 == 0 {
			query = "prefixword " + query + " suffixword"
		}
		broad := idSet(ix.BroadMatchText(query, nil))
		for id := range idSet(ix.ExactMatch(query, nil)) {
			if !broad[id] {
				t.Fatalf("exact ⊄ broad for %q (id %d)", query, id)
			}
		}
	}
}

func idSet(ads []*corpus.Ad) map[uint64]bool {
	out := make(map[uint64]bool, len(ads))
	for _, a := range ads {
		out[a.ID] = true
	}
	return out
}

// The counter invariants: matches never exceed phrases checked; node
// visits never exceed hash probes; every query is counted.
func TestCounterInvariantsQuick(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 500, Seed: 115})
	ix := New(c.Ads, Options{})
	vocab := c.Vocabulary()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var counters costmodel.Counters
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			var qw []string
			for j := rng.Intn(5); j >= 0; j-- {
				qw = append(qw, vocab[rng.Intn(len(vocab))])
			}
			ix.BroadMatch(textnorm.CanonicalSet(qw), &counters)
		}
		return counters.Queries == int64(n) &&
			counters.Matches <= counters.PhrasesChecked &&
			counters.NodesVisited <= counters.HashProbes &&
			counters.RandomAccesses >= counters.HashProbes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// LookupsForQueryLength is the worst-case probe bound of Section IV-B.
// Locator-prefix pruning keeps actual probes at or below it — strictly
// below whenever some enumerated subset is not a live locator prefix —
// and exactly at it when every enumerable subset is itself indexed, since
// then no DFS subtree can be pruned.
func TestProbeCountMatchesFormula(t *testing.T) {
	// Single-word ads: only singleton prefixes exist, so every multi-word
	// subtree prunes and probes fall well below the formula.
	ads := mustAds("a", "b", "c", "d", "e", "f", "g", "h")
	for _, maxWords := range []int{2, 3, 5, 8} {
		ix := New(ads, Options{MaxWords: maxWords, MaxQueryWords: 8})
		for _, q := range [][]string{
			{"a"}, {"a", "b"}, {"a", "b", "c", "d"},
			{"a", "b", "c", "d", "e", "f", "g", "h"},
		} {
			var counters costmodel.Counters
			ix.BroadMatch(q, &counters)
			bound := ix.LookupsForQueryLength(len(q))
			if int(counters.HashProbes) > bound {
				t.Errorf("maxWords=%d |q|=%d: probes %d exceed bound %d",
					maxWords, len(q), counters.HashProbes, bound)
			}
			if len(q) == 1 && int(counters.HashProbes) != bound {
				t.Errorf("maxWords=%d singleton query: probes %d, want %d",
					maxWords, counters.HashProbes, bound)
			}
		}
	}
	// Every non-empty subset of {a,b,c,d} indexed: nothing can prune, so
	// the formula is exact.
	words := []string{"a", "b", "c", "d"}
	var phrases []string
	for m := 1; m < 1<<len(words); m++ {
		p := ""
		for i, w := range words {
			if m&(1<<i) != 0 {
				if p != "" {
					p += " "
				}
				p += w
			}
		}
		phrases = append(phrases, p)
	}
	full := New(mustAds(phrases...), Options{MaxWords: 4, MaxQueryWords: 8})
	for _, q := range [][]string{
		{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d"},
	} {
		var counters costmodel.Counters
		full.BroadMatch(q, &counters)
		want := full.LookupsForQueryLength(len(q))
		if int(counters.HashProbes) != want {
			t.Errorf("all-subsets corpus |q|=%d: probes %d, formula %d",
				len(q), counters.HashProbes, want)
		}
	}
}
