package main

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"time"

	"adindex"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/shard"
	"adindex/internal/textnorm"
	"adindex/internal/workload"
)

// spec is one workload: the inputs it generates and the serving stack
// they drive. README.md records why each was chosen.
type spec struct {
	name    string
	ads     int  // corpus size
	queries int  // distinct queries in the Zipf workload
	cache   bool // result cache on at its default size (off otherwise)
	durable bool // OpenDurable + Bootstrap, with a paced churn writer
	sharded bool // 2 TCP shard servers + ad server behind server.NewRemote
}

var specs = []spec{
	{name: "broad-large", ads: 200_000, queries: 20_000},
	{name: "broad-hot", ads: 20_000, queries: 2_000, cache: true},
	{name: "churn-durable", ads: 200_000, queries: 20_000, cache: true, durable: true},
	{name: "sharded-tcp", ads: 200_000, queries: 20_000, sharded: true},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

const (
	// streamLen is the length of the generated request stream; the
	// closed loop wraps around it.
	streamLen = 1 << 19
	// sampleStride selects the oracle-checked requests: every stream
	// position divisible by it.
	sampleStride = 101
	// traceQueries is how many distinct sampled queries the traced run
	// replays through each layer.
	traceQueries = 256
	// numShards is the sharded-tcp deployment's shard count.
	numShards = 2
	// writeSpacing is the churn writer's schedule: one mutation due
	// every writeSpacing. A fold (every 256 mutations once the overlay is
	// full) takes ~2 s on the 200k-ad corpus and slows the writes after
	// it while the collector reclaims the old base, so at this spacing a
	// 30 s window crosses three folds, about a third of its writes queue
	// behind them, and the median write stays clear of the queue.
	writeSpacing = 50 * time.Millisecond
	// prefill is how many churn mutations the writer sends back to back
	// before the measured window, so the overlay starts near full and the
	// first fold falls early in the window.
	prefill = 200
	// churnWindow is how many churn ads stay live: once the writer has
	// inserted this many, each insert is paired with the delete of the
	// ad inserted churnWindow inserts earlier.
	churnWindow = 256
	// churnIDBase keeps churn ad IDs disjoint from the corpus (1..ads).
	churnIDBase = 1 << 40
)

// selection is the auction every local workload's server applies: rank
// by bid and keep the top 8 ads. Remote mode serves ID lists instead.
var selection = adindex.Selection{MaxResults: 8}

// mutation is one churn-writer operation.
type mutation struct {
	insert bool
	ad     adindex.Ad // a delete uses ad.ID and ad.Phrase
}

// expect is the oracle's answer for one sampled query.
type expect struct {
	ids []uint64 // every matching ad ID, ascending
	top []uint64 // SelectAds winners in rank order (local workloads)
	// topAds are the auction winners among the corpus matches
	// (churn-durable only). The auction filters each ad on its own and
	// ranks by a total order, so the winners over the corpus matches
	// plus some churn ads are the winners over topAds plus those ads.
	topAds []adindex.Ad
	// churn holds the churn ads of the schedule whose word set is a
	// subset of the query's (churn-durable only): a mid-run answer may
	// include any of them, depending on which are live.
	churn map[uint64]adindex.Ad
}

// inputs is everything a run generates from its seed. The program
// receives only ads (at set-up), query texts and mutations.
type inputs struct {
	sp      spec
	seed    int64
	ads     []adindex.Ad
	queries []string   // distinct query texts, in workload order
	words   [][]string // canonical word set of each query
	stream  []int32    // query index of each stream position
	expect  map[int32]*expect
	traceQ  []int32    // distinct sampled queries the traced run replays
	writes  []mutation // churn-durable's schedule: prefill, then paced
	// oracle holds the indexes ReferenceBroadMatch ran on: one core.New
	// of the corpus, or for sharded-tcp the shards of shard.New.
	oracle []*core.Index
}

// catalogSeed fixes each workload's ad corpus and query catalog (the
// distinct queries and their Zipf frequencies). The run's seed draws
// the request stream and the write schedule from them. Re-drawing the
// catalog per seed moved qps by up to a third between seeds, because
// ten head queries carry ~40% of the Zipf traffic and their match
// counts are whatever the draw gives; README.md has the numbers.
const catalogSeed = 1

// subSeed derives an independent generator seed for one input stream.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// makeInputs generates the workload's corpus and query catalog, and from
// seed its request stream and write schedule, plus the oracle answers.
// seconds sizes churn-durable's write schedule.
func makeInputs(sp spec, seed int64, seconds int) *inputs {
	c := generateCorpus(sp)
	wl := workload.Generate(c, workload.GenOptions{NumQueries: sp.queries, Seed: subSeed(catalogSeed, 2)})
	in := &inputs{sp: sp, seed: seed, ads: c.Ads}
	index := make(map[*workload.Query]int32, len(wl.Queries))
	for i := range wl.Queries {
		q := &wl.Queries[i]
		index[q] = int32(i)
		// Cloned, so the benchmark holds no string the corpus (and so
		// the index) also references: the heap measurement must see the
		// program's data only.
		words := cloneStrings(q.Words)
		in.queries = append(in.queries, strings.Join(words, " "))
		in.words = append(in.words, words)
	}
	in.stream = make([]int32, streamLen)
	for p, q := range wl.Stream(streamLen, subSeed(seed, 3)) {
		in.stream[p] = index[q]
	}
	if sp.durable {
		paced := int(time.Duration(seconds) * time.Second / writeSpacing)
		in.writes = churnSchedule(in.ads, prefill+paced, subSeed(seed, 4))
	}
	in.buildOracle()
	return in
}

// generateCorpus returns the workload's ad corpus.
func generateCorpus(sp spec) *corpus.Corpus {
	return corpus.Generate(corpus.GenOptions{NumAds: sp.ads, Seed: subSeed(catalogSeed, 1)})
}

// churnSchedule returns n mutations of fresh ads: inserts, each paired
// (after the first churnWindow) with the delete of the ad inserted
// churnWindow inserts earlier.
func churnSchedule(ads []adindex.Ad, n int, seed int64) []mutation {
	fresh := freshAds(ads, n, seed)
	out := make([]mutation, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, mutation{insert: true, ad: fresh[i]})
		if k := i - churnWindow; k >= 0 && len(out) < n {
			out = append(out, mutation{ad: fresh[k]})
		}
	}
	return out
}

// freshAds returns n ads with IDs disjoint from the corpus, each with a
// random corpus ad's phrase, so it matches the queries that ad matches.
func freshAds(ads []adindex.Ad, n int, seed int64) []adindex.Ad {
	rng := rand.New(rand.NewSource(seed))
	out := make([]adindex.Ad, n)
	for i := range out {
		phrase := strings.Clone(ads[rng.Intn(len(ads))].Phrase)
		out[i] = adindex.NewAd(churnIDBase+uint64(i), phrase,
			adindex.Meta{BidMicros: int64(5000 + rng.Intn(5_000_000)), ClickRate: uint16(rng.Intn(2000))})
	}
	return out
}

// liveAfter returns the churn ads a schedule leaves indexed.
func liveAfter(writes []mutation) []adindex.Ad {
	live := map[uint64]adindex.Ad{}
	for _, m := range writes {
		if m.insert {
			live[m.ad.ID] = m.ad
		} else {
			delete(live, m.ad.ID)
		}
	}
	out := make([]adindex.Ad, 0, len(live))
	for _, ad := range live {
		out = append(out, ad)
	}
	slices.SortFunc(out, func(a, b adindex.Ad) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// buildOracle computes the expected answer of every sampled query with
// core.ReferenceBroadMatch, the index's kept-verbatim reference path.
// The sharded deployment applies the long-query word cutoff per shard,
// so its oracle is the union of the per-shard reference answers.
func (in *inputs) buildOracle() {
	if in.sp.sharded {
		cl, err := shard.New(in.ads, numShards, core.Options{})
		if err != nil {
			panic(err) // numShards is a positive constant
		}
		for i := 0; i < cl.NumShards(); i++ {
			in.oracle = append(in.oracle, cl.Shard(i))
		}
	} else {
		in.oracle = []*core.Index{core.New(in.ads, core.Options{})}
	}
	in.expect = map[int32]*expect{}
	for p := 0; p < len(in.stream); p += sampleStride {
		qi := in.stream[p]
		if in.expect[qi] != nil {
			continue
		}
		if len(in.traceQ) < traceQueries {
			in.traceQ = append(in.traceQ, qi)
		}
		in.expect[qi] = in.answer(qi, in.oracle, in.writes)
	}
}

// answer computes one query's expectation on the given oracle indexes;
// writes (may be nil) are the churn ads that could be live.
func (in *inputs) answer(qi int32, oracle []*core.Index, writes []mutation) *expect {
	var matches []adindex.Ad
	for _, ix := range oracle {
		for _, ad := range ix.ReferenceBroadMatch(in.words[qi], nil) {
			matches = append(matches, *ad)
		}
	}
	slices.SortFunc(matches, func(a, b adindex.Ad) int { return cmp.Compare(a.ID, b.ID) })
	e := &expect{ids: make([]uint64, len(matches))}
	for i := range matches {
		e.ids[i] = matches[i].ID
	}
	if in.sp.sharded {
		return e
	}
	top := adindex.SelectAds(in.queries[qi], matches, selection)
	for _, ad := range top {
		e.top = append(e.top, ad.ID)
	}
	if len(writes) > 0 {
		// SelectAds reads only the ID and metadata; keep those alone so
		// the expectation shares no string with the index.
		for _, ad := range top {
			e.topAds = append(e.topAds, adindex.Ad{ID: ad.ID, Meta: adindex.Meta{
				BidMicros: ad.Meta.BidMicros, ClickRate: ad.Meta.ClickRate,
				Exclusions: cloneStrings(ad.Meta.Exclusions)}})
		}
		e.churn = map[uint64]adindex.Ad{}
		for _, m := range writes {
			if m.insert && textnorm.IsSubset(m.ad.Words, in.words[qi]) {
				e.churn[m.ad.ID] = m.ad
			}
		}
	}
	return e
}

func cloneStrings(ss []string) []string {
	if ss == nil {
		return nil
	}
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.Clone(s)
	}
	return out
}

// props are the input properties the run record reports.
type props struct {
	Ads             int     `json:"ads"`
	DistinctQueries int     `json:"distinct_queries"`
	MeanWords       float64 `json:"mean_words_per_query"`
	LongShare       float64 `json:"share_queries_9plus_words"`
	MeanMatches     float64 `json:"mean_matches_per_query"`
	Writes          int     `json:"writes_scheduled"`
}

// properties measures the stream the run sends: words per query and the
// share of 9+-word queries over every stream position, matches per query
// over the oracle-checked positions.
func (in *inputs) properties() props {
	pr := props{Ads: len(in.ads), DistinctQueries: len(in.queries), Writes: len(in.writes)}
	var words, long int
	for _, qi := range in.stream {
		n := len(in.words[qi])
		words += n
		if n >= 9 {
			long++
		}
	}
	pr.MeanWords = float64(words) / float64(len(in.stream))
	pr.LongShare = float64(long) / float64(len(in.stream))
	var matches, sampled int
	for p := 0; p < len(in.stream); p += sampleStride {
		matches += len(in.expect[in.stream[p]].ids)
		sampled++
	}
	pr.MeanMatches = float64(matches) / float64(sampled)
	return pr
}
