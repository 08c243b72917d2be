package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"adindex"
)

func postBatch(t *testing.T, base string, body any) (*http.Response, batchResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/search/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return resp, out
}

func TestSearchBatch(t *testing.T) {
	_, ix, base := startTestServer(t, Config{})

	resp, out := postBatch(t, base, batchRequest{Queries: []string{
		"cheap used books", "running shoes", "nothing matches this",
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if out.Results[0].Matched != 4 { // ads 1, 2, 4, 5
		t.Errorf("query 0 matched = %d, want 4", out.Results[0].Matched)
	}
	if out.Results[1].Matched != 1 {
		t.Errorf("query 1 matched = %d, want 1", out.Results[1].Matched)
	}
	if out.Results[2].Matched != 0 {
		t.Errorf("query 2 matched = %d, want 0", out.Results[2].Matched)
	}
	if out.Epoch != ix.Epoch() {
		t.Errorf("batch epoch = %d, index epoch = %d", out.Epoch, ix.Epoch())
	}

	// The singular endpoint shares the cache: a repeat batch is all hits.
	_, again := postBatch(t, base, batchRequest{Queries: []string{"used cheap books"}})
	if len(again.Results) != 1 || !again.Results[0].Cached {
		t.Errorf("reordered repeat in batch missed the cache: %+v", again.Results)
	}

	// A mutation invalidates batch entries through the epoch, same as
	// /search.
	ix.Insert(adindex.NewAd(9, "cheap paperback books", adindex.Meta{}))
	_, after := postBatch(t, base, batchRequest{Queries: []string{"cheap used paperback books"}})
	if after.Results[0].Cached {
		t.Error("post-mutation batch served a stale cache entry")
	}
	if after.Results[0].Matched != 5 {
		t.Errorf("post-mutation matched = %d, want 5", after.Results[0].Matched)
	}
}

func TestSearchBatchValidation(t *testing.T) {
	_, _, base := startTestServer(t, Config{})

	if resp, _ := postBatch(t, base, batchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postBatch(t, base, batchRequest{Queries: []string{"ok", "  "}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("blank query status = %d, want 400", resp.StatusCode)
	}
	big := batchRequest{Queries: make([]string, MaxBatchQueries+1)}
	for i := range big.Queries {
		big.Queries[i] = "q"
	}
	if resp, _ := postBatch(t, base, big); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(base + "/search/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status = %d, want 405", resp.StatusCode)
	}
}

// TestSearchAndBatchShareCacheEntries: /search and /search/batch share
// cache keys, so whichever endpoint fills an entry, the other reads the
// same answer from it, with and without an auction Selection.
func TestSearchAndBatchShareCacheEntries(t *testing.T) {
	const q = "cheap used books"
	for _, sel := range []*adindex.Selection{nil, {MaxResults: 2, MinBidMicros: 150}} {
		s, ix, base := startTestServer(t, Config{Selection: sel})
		viaSearch := func() (int, []uint64, bool) {
			r := search(t, base, q, "")
			return r.Matched, adIDs(r.Ads), r.Cached
		}
		viaBatch := func() (int, []uint64, bool) {
			_, out := postBatch(t, base, batchRequest{Queries: []string{q}})
			r := out.Results[0]
			return r.Matched, adIDs(r.Ads), r.Cached
		}
		var want []uint64
		for _, ad := range ix.BroadMatch(q) {
			want = append(want, ad.ID)
		}
		if sel != nil {
			want = adIDs(adindex.SelectAds(q, ix.BroadMatch(q), *sel))
		}
		for i, order := range [][2]func() (int, []uint64, bool){
			{viaSearch, viaBatch}, {viaBatch, viaSearch},
		} {
			// A mutation moves the epoch, so the first call refills the entry.
			ix.Insert(adindex.NewAd(uint64(100+i), "unrelated phrase", adindex.Meta{}))
			for j, call := range order {
				matched, ids, cached := call()
				if cached != (j == 1) {
					t.Fatalf("selection %v order %d call %d: cached = %v", sel, i, j, cached)
				}
				if matched != 4 || !slices.Equal(ids, want) {
					t.Fatalf("selection %v order %d call %d: matched %d ads %v, want 4 and %v",
						sel, i, j, matched, ids, want)
				}
			}
		}
		if hits, _, _ := s.cache.Stats(); hits != 2 {
			t.Fatalf("selection %v: cache hits = %d, want 2", sel, hits)
		}
	}
}
