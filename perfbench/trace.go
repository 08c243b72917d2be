package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"adindex"
	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/costmodel"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
	"adindex/internal/textnorm"
)

const (
	// traceRounds is how often the traced run replays its sample through
	// each layer; round 0 warms caches and pools and is not counted.
	traceRounds = 6
	// sweepWrites is how many mutations the traced run applies directly
	// to a durable index. The overlay starts empty, so the first 256 only
	// fill it; each later window of 256 holds one fold.
	sweepWrites = 3 * 256
	foldWindow  = 256
)

// layerDef is one per-layer metric of the table.
type layerDef struct {
	name, unit string
	// moves names the end-to-end metric and workloads the layer metric
	// should move.
	moves string
	// listed metrics appear in BENCHMARK.json's per_layer list and so
	// in every traced run's result; the rest (counts that are 0 in a
	// healthy run, ratios a workload cannot have) are in the table only.
	listed bool
}

var layerDefs = []layerDef{
	{"textnorm.tokenize_ns", "ns", "p50_us on broad-large, broad-hot", true},
	{"core.match_ns", "ns", "p50_us, qps on broad-large; none on broad-hot", true},
	{"core.probes_per_q", "count", "p50_us on broad-large", true},
	{"core.nodes_per_q", "count", "p50_us on broad-large", true},
	{"core.records_per_q", "count", "p50_us on broad-large", true},
	{"core.bytes_per_q", "B", "p50_us on broad-large", true},
	{"core.random_per_q", "count", "p50_us on broad-large", true},
	{"core.modeled_cost_per_q", "units", "p50_us on broad-large", true},
	{"core.sig_reject_ratio", "ratio", "p50_us on broad-large", false},
	{"core.verify_yield", "ratio", "p50_us on broad-large", true},
	{"adindex.search_ns", "ns", "p50_us on broad-large", true},
	{"adindex.self_ns", "ns", "p50_us on broad-large", true},
	{"adindex.allocs_per_q", "count", "p99_us, qps on broad-large", true},
	{"adindex.bytes_per_q", "B", "p99_us, qps on broad-large", true},
	{"adindex.build_s", "s", "setup_s on broad-large, broad-hot", true},
	{"adindex.insert_us", "us", "write_p50_us, write_p99_us, qps on churn-durable", true},
	{"adindex.delete_us", "us", "write_p50_us, write_p99_us, qps on churn-durable", true},
	{"adindex.fold_ms", "ms", "write_p99_us, qps on churn-durable", true},
	{"runtime.gc_cpu_frac", "ratio", "p99_us, qps, heap_b_per_ad on broad-large", true},
	{"runtime.gc_cycles_per_kreq", "count", "p99_us, qps on broad-large", true},
	{"runtime.heap_live_mb", "MB", "heap_b_per_ad on broad-large", true},
	{"auction.select_ns", "ns", "p50_us on broad-large, broad-hot", true},
	{"server.handler_us", "us", "p50_us, qps on broad-hot", true},
	{"server.self_us", "us", "p50_us, qps on broad-hot", true},
	{"server.transport_us", "us", "p50_us, qps on broad-hot", true},
	{"server.resp_bytes", "B", "qps on broad-hot", true},
	{"server.cache_hit_ratio", "ratio", "qps on broad-hot, churn-durable", false},
	{"server.cache_invalidations_per_write", "ratio", "qps on churn-durable", false},
	{"server.shed", "count", "ok_frac on all", false},
	{"server.timeouts", "count", "ok_frac on all", false},
	{"multiserver.shard_service_us", "us", "p50_us, qps on sharded-tcp", true},
	{"multiserver.shard_busy_frac", "ratio", "qps on sharded-tcp", true},
	{"multiserver.ids_rtt_us", "us", "p50_us on sharded-tcp", true},
	{"multiserver.meta_fetch_us", "us", "p50_us on sharded-tcp", true},
	{"shard.query_us", "us", "p50_us on sharded-tcp", true},
	{"shard.retries", "count", "ok_frac on sharded-tcp", false},
	{"shard.reconnects", "count", "ok_frac on sharded-tcp", false},
	{"shard.hedges", "count", "ok_frac on sharded-tcp", false},
	{"shard.degraded", "count", "ok_frac on sharded-tcp", false},
	{"durable.wal_bytes_per_write", "B", "write_p50_us on churn-durable", true},
	{"durable.syncs_per_write", "count", "write_p50_us, write_p99_us on churn-durable", true},
	{"durable.bootstrap_s", "s", "setup_s on churn-durable", true},
	{"trace.untraced_qps", "req/s", "tracing overhead (with trace.traced_qps)", true},
	{"trace.traced_qps", "req/s", "tracing overhead (with trace.untraced_qps)", true},
}

// layerVals collects the traced run's per-layer figures, and for the
// metrics a workload cannot have, the reason.
type layerVals struct {
	v  map[string]float64
	na map[string]string
}

// runTraced is the traced run. On the workload's own stack it runs the
// closed loop in quarters, untraced, traced (a span per request), traced,
// untraced, then replays the sample through the HTTP handler
// and over the socket. Then, with the stack torn down, it replays the
// sample through each layer's public functions on the same inputs:
// textnorm, core, adindex and the auction, the durable write path, and a
// 2-shard TCP deployment.
func runTraced(in *inputs, dur time.Duration, workDir string, rec *record) (*result, error) {
	sp := in.sp
	res := &result{correct: true}
	lv := &layerVals{v: map[string]float64{}, na: map[string]string{}}
	origin := time.Now()
	replay := newTracer(origin)
	tracers := []*tracer{replay}

	st, err := startStack(sp, in.ads, workDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	l, err := openLoop(in, st, res)
	if err != nil {
		return nil, err
	}
	m0, err := fetchMetrics(st.addr)
	if err != nil {
		return nil, err
	}
	for _, s := range st.shardSrv {
		s.ResetStats()
	}
	// The loop runs in quarters, untraced, traced, traced, untraced, so
	// a drift in speed over the run cancels out of the comparison.
	quarter := dur / 4
	start := time.Now()
	if err := l.begin(st, start); err != nil {
		return nil, err
	}
	var loopTracers []*tracer
	for range l.readers {
		loopTracers = append(loopTracers, newTracer(origin))
	}
	tracers = append(tracers, loopTracers...)
	var nU, nT int
	var dU, dT time.Duration
	var rt rtSample // runtime figures summed over the untraced quarters
	for q, traced := range []bool{false, true, true, false} {
		for i, r := range l.readers {
			r.tr = nil
			if traced {
				r.tr = loopTracers[i]
			}
		}
		before, t0, rt0 := l.measured(), time.Now(), readRuntime()
		l.run(start.Add(time.Duration(q+1)*quarter), true)
		n, d, rt1 := l.measured()-before, time.Since(t0), readRuntime()
		if traced {
			nT, dT = nT+n, dT+d
		} else {
			nU, dU = nU+n, dU+d
			rt = rtSample{rt.gcCPU + rt1.gcCPU - rt0.gcCPU, rt.totalCPU + rt1.totalCPU - rt0.totalCPU,
				rt.cycles + rt1.cycles - rt0.cycles, rt1.live}
		}
	}
	elapsed := time.Since(start)
	for _, r := range l.readers {
		r.tr = nil
	}
	if st.shardSrv != nil {
		shardLoad(lv, st.shardSrv, elapsed)
	}
	lat, bytes, _ := l.finish(res)
	n := len(lat)
	m1, err := fetchMetrics(st.addr)
	if err != nil {
		return nil, err
	}
	lv.v["trace.untraced_qps"] = float64(nU) / dU.Seconds()
	lv.v["trace.traced_qps"] = float64(nT) / dT.Seconds()
	res.notes = append(res.notes, fmt.Sprintf("tracing overhead: qps traced %.0f vs untraced %.0f (%+.1f%%)",
		lv.v["trace.traced_qps"], lv.v["trace.untraced_qps"],
		100*(lv.v["trace.traced_qps"]/lv.v["trace.untraced_qps"]-1)))
	lv.v["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
	lv.v["runtime.gc_cycles_per_kreq"] = ratio(rt.cycles, float64(nU)/1000)
	lv.v["runtime.heap_live_mb"] = rt.live / 1e6
	hits := float64(m1.Cache.Hits - m0.Cache.Hits)
	lookups := hits + float64(m1.Cache.Misses-m0.Cache.Misses)
	rec.CacheHitShare = ratio(hits, lookups)
	if sp.cache {
		lv.v["server.cache_hit_ratio"] = rec.CacheHitShare
	} else {
		lv.na["server.cache_hit_ratio"] = "result cache off on this workload"
	}
	if muts := float64(m1.Mutations - m0.Mutations); muts > 0 {
		lv.v["server.cache_invalidations_per_write"] = float64(m1.Cache.Invalidations-m0.Cache.Invalidations) / muts
	} else {
		lv.na["server.cache_invalidations_per_write"] = "no writes reach the HTTP server on this workload"
	}
	lv.v["server.shed"] = float64(m1.Shed - m0.Shed)
	lv.v["server.timeouts"] = float64(m1.Timeouts - m0.Timeouts)
	lv.v["server.resp_bytes"] = ratio(float64(bytes), float64(n))
	if st.nc != nil {
		shardStats(lv, st.nc.Stats())
	}

	exp, a, f, err := finalCheck(in, st)
	res.attempted += a
	res.failed += f
	res.fail(err)
	replayHandler(in, st, exp, replay, res)
	l.close()
	if err := st.close(); err != nil {
		return nil, err
	}
	st = nil

	if err := sweepLayers(in, workDir, replay, lv, res); err != nil {
		return nil, err
	}
	layerTable(in, replay, lv, res)

	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", rec.Workload, rec.Seed))
	if err := writeSpans(path, tracers); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans "+path)
	tablePath, err := writeLines(rec, "layers.txt", res.notes)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "table "+tablePath)
	for _, d := range layerDefs {
		if d.listed {
			v, ok := lv.v[d.name]
			if !ok {
				return nil, fmt.Errorf("layer metric %s not measured: %s", d.name, lv.na[d.name])
			}
			res.add(d.name, d.unit, v, 0)
		}
	}
	return res, nil
}

// rtSample is the runtime/metrics state the traced run differences.
type rtSample struct{ gcCPU, totalCPU, cycles, live float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return rtSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64()), float64(s[3].Value.Uint64())}
}

// shardLoad records the shard servers' mean service time and busy share
// over elapsed.
func shardLoad(lv *layerVals, srvs []*multiserver.Server, elapsed time.Duration) {
	var svc, busy float64
	for _, s := range srvs {
		svc += float64(s.MeanServiceTime().Nanoseconds()) / 1e3
		busy += s.BusyFraction(elapsed)
	}
	lv.v["multiserver.shard_service_us"] = svc / float64(len(srvs))
	lv.v["multiserver.shard_busy_frac"] = busy / float64(len(srvs))
}

func shardStats(lv *layerVals, s shard.Stats) {
	lv.v["shard.retries"] = float64(s.Retries)
	lv.v["shard.reconnects"] = float64(s.Reconnects)
	lv.v["shard.hedges"] = float64(s.Hedges)
	lv.v["shard.degraded"] = float64(s.Degraded)
}

// replayHandler replays the sample through the workload's HTTP handler
// (server.Handler().ServeHTTP into a recorder, no socket) and then over
// the socket, checking every handler answer.
func replayHandler(in *inputs, st *stack, exp map[int32]*expect, tr *tracer, res *result) {
	h := st.srv.Handler()
	r := newReader(in, searchURLs(st.addr, in.queries))
	defer r.client.CloseIdleConnections()
	settle()
	for round := int32(0); round < traceRounds; round++ {
		tr.round = round
		for _, qi := range in.traceQ {
			root := tr.begin("query", int64(qi), noParent)
			req := httptest.NewRequest(http.MethodGet, "/search?q="+url.QueryEscape(in.queries[qi]), nil)
			rr := httptest.NewRecorder()
			tr.call("server.handler", int64(qi), root, func() { h.ServeHTTP(rr, req) })
			var status int
			var err error
			tr.call("client.http", int64(qi), root, func() { status, err = r.get(r.urls[qi]) })
			tr.end(root)
			res.attempted += 2
			if err == nil && (rr.Code != http.StatusOK || status != http.StatusOK) {
				err = fmt.Errorf("replay %q: status %d (handler), %d (socket)", in.queries[qi], rr.Code, status)
			}
			if err == nil {
				err = checkAgainst(in, qi, exp[qi], rr.Body.Bytes())
			}
			if err != nil {
				res.failed++
				res.fail(err)
			}
		}
	}
	tr.round = -1
}

// sweepLayers replays the sample through each layer's public functions
// on the workload's inputs, with the serving stack gone.
func sweepLayers(in *inputs, workDir string, tr *tracer, lv *layerVals, res *result) error {
	// textnorm and core: core.New of the corpus (the local oracle index),
	// pre-tokenized words, one reused Scratch.
	coreIx := in.oracle[0]
	if len(in.oracle) != 1 {
		coreIx = core.New(in.ads, core.Options{})
	}
	var sc core.Scratch
	var dst []*corpus.Ad
	settle()
	for round := int32(0); round < traceRounds; round++ {
		tr.round = round
		for _, qi := range in.traceQ {
			root := tr.begin("query", int64(qi), noParent)
			tr.call("textnorm.tokenize", int64(qi), root, func() { _ = textnorm.WordSet(in.queries[qi]) })
			tr.call("core.match", int64(qi), root, func() { dst = coreIx.AppendBroadMatch(dst[:0], in.words[qi], nil, &sc) })
			tr.end(root)
		}
	}
	cc := coreCounters(coreIx, in)
	nq := float64(len(in.traceQ))
	lv.v["core.probes_per_q"] = float64(cc.HashProbes) / nq
	lv.v["core.nodes_per_q"] = float64(cc.NodesVisited) / nq
	lv.v["core.records_per_q"] = float64(cc.SignatureChecks) / nq
	lv.v["core.bytes_per_q"] = float64(cc.BytesScanned) / nq
	lv.v["core.random_per_q"] = float64(cc.RandomAccesses) / nq
	lv.v["core.modeled_cost_per_q"] = cc.Cost(costmodel.Default()) / nq
	lv.v["core.sig_reject_ratio"] = ratio(float64(cc.SignatureRejects), float64(cc.SignatureChecks))
	lv.v["core.verify_yield"] = ratio(float64(cc.Matches), float64(cc.PhrasesChecked))
	res.notes = append(res.notes, "core counters over the sample: "+cc.String())
	in.oracle = nil

	// adindex and the auction: adindex.Build of the corpus, the
	// server's call (View.BroadMatchBudget), then SelectAds.
	runtime.GC()
	t0 := time.Now()
	ix := adindex.Build(in.ads, adindex.Options{})
	lv.v["adindex.build_s"] = time.Since(t0).Seconds()
	view := ix.View()
	settle()
	for round := int32(0); round < traceRounds; round++ {
		tr.round = round
		for _, qi := range in.traceQ {
			q := in.queries[qi]
			root := tr.begin("query", int64(qi), noParent)
			var mr adindex.MatchResult
			tr.call("adindex.search", int64(qi), root, func() { mr = view.BroadMatchBudget(q, adindex.QueryBudget{}) })
			tr.call("auction.select", int64(qi), root, func() { _ = adindex.SelectAds(q, mr.Ads, selection) })
			tr.end(root)
		}
	}
	tr.round = -1
	// The core counters must equal the index's own accounting of the
	// same queries.
	vc := viewCounters(view, in)
	res.attempted++
	if vc != cc {
		res.failed++
		res.fail(fmt.Errorf("core counters %s differ from View.BroadMatchCounted %s", cc.String(), vc.String()))
	}
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	calls := 0
	for round := 1; round < traceRounds; round++ {
		for _, qi := range in.traceQ {
			_ = view.BroadMatchBudget(in.queries[qi], adindex.QueryBudget{})
			calls++
		}
	}
	runtime.ReadMemStats(&ms1)
	lv.v["adindex.allocs_per_q"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
	lv.v["adindex.bytes_per_q"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(calls)

	if err := sweepDurable(in, workDir, lv, res); err != nil {
		return err
	}
	return sweepSharded(in, tr, lv, res)
}

// coreCounters is the core index's access accounting, summed over the
// traced sample: AppendBroadMatch on pre-tokenized words, one Scratch.
func coreCounters(ix *core.Index, in *inputs) costmodel.Counters {
	var c costmodel.Counters
	var sc core.Scratch
	var dst []*corpus.Ad
	for _, qi := range in.traceQ {
		dst = ix.AppendBroadMatch(dst[:0], in.words[qi], &c, &sc)
	}
	return c
}

// viewCounters is View.BroadMatchCounted's accounting of the same sample.
func viewCounters(v adindex.View, in *inputs) adindex.Counters {
	var c adindex.Counters
	for _, qi := range in.traceQ {
		v.BroadMatchCounted(in.queries[qi], &c)
	}
	return c
}

// sweepDurable bootstraps a durable index from the corpus and applies a
// churn schedule to it directly, timing each Insert and Delete.
func sweepDurable(in *inputs, workDir string, lv *layerVals, res *result) error {
	dir, err := os.MkdirTemp(workDir, "sweep-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t0 := time.Now()
	ix, _, err := adindex.OpenDurable(filepath.Join(dir, "state"), adindex.Options{},
		adindex.DurableConfig{Bootstrap: in.ads})
	if err != nil {
		return fmt.Errorf("durable sweep: %w", err)
	}
	lv.v["durable.bootstrap_s"] = time.Since(t0).Seconds()
	s0, _ := ix.DurableStats()
	sched := churnSchedule(in.ads, sweepWrites, subSeed(in.seed, 5))
	var ins, del []int64
	folds := make([]float64, len(sched)/foldWindow)
	settle()
	for i, m := range sched {
		t := time.Now()
		if m.insert {
			ix.Insert(m.ad)
			d := time.Since(t).Nanoseconds()
			ins = append(ins, d)
			folds[i/foldWindow] = max(folds[i/foldWindow], float64(d))
			continue
		}
		ok := ix.Delete(m.ad.ID, m.ad.Phrase)
		del = append(del, time.Since(t).Nanoseconds())
		res.attempted++
		if !ok {
			res.failed++
			res.fail(fmt.Errorf("durable sweep: delete of ad %d not found", m.ad.ID))
		}
	}
	s1, _ := ix.DurableStats()
	if err := ix.PersistErr(); err != nil {
		res.fail(fmt.Errorf("durable sweep: %w", err))
	}
	if err := ix.Close(); err != nil {
		return fmt.Errorf("durable sweep: close: %w", err)
	}
	nw := float64(len(sched))
	lv.v["durable.wal_bytes_per_write"] = float64(s1.WALBytes-s0.WALBytes) / nw
	lv.v["durable.syncs_per_write"] = float64(s1.Syncs-s0.Syncs) / nw
	lv.v["adindex.insert_us"] = percentile(ins, 50) / 1e3
	lv.v["adindex.delete_us"] = percentile(del, 50) / 1e3
	lv.v["adindex.fold_ms"] = median(folds[1:]) / 1e6
	return nil
}

// sweepSharded stands up a 2-shard TCP deployment of the corpus and
// replays the sample through shard.NetClient (fan-out, merge and
// metadata fetch) and through one shard's multiserver.Client hops.
func sweepSharded(in *inputs, tr *tracer, lv *layerVals, res *result) error {
	sp := in.sp
	sp.sharded, sp.durable = true, false
	st, err := startStack(sp, in.ads, "")
	if err != nil {
		return fmt.Errorf("sharded sweep: %w", err)
	}
	defer st.close()
	mc, err := multiserver.Dial(st.shardSrv[0].Addr(), st.adSrv.Addr())
	if err != nil {
		return fmt.Errorf("sharded sweep: %w", err)
	}
	defer mc.Close()
	var t0 time.Time
	settle()
	for round := int32(0); round < traceRounds; round++ {
		tr.round = round
		if round == 1 {
			for _, s := range st.shardSrv {
				s.ResetStats()
			}
			t0 = time.Now()
		}
		for _, qi := range in.traceQ {
			q := in.queries[qi]
			root := tr.begin("query", int64(qi), noParent)
			var sr *shard.Result
			var ids []uint64
			var errs [3]error
			tr.call("shard.query", int64(qi), root, func() { sr, errs[0] = st.nc.QueryResult(q) })
			tr.call("multiserver.ids_rtt", int64(qi), root, func() { ids, errs[1] = mc.QueryIDs(q) })
			tr.call("multiserver.meta_fetch", int64(qi), root, func() { _, errs[2] = mc.FetchMeta(ids) })
			tr.end(root)
			res.attempted++
			err := firstErr(errs[:]...)
			if err == nil && in.sp.sharded && !slices.Equal(sr.IDs, in.expect[qi].ids) {
				err = fmt.Errorf("sharded sweep: query %q: %d ids, oracle %d", q, len(sr.IDs), len(in.expect[qi].ids))
			}
			if err != nil {
				res.failed++
				res.fail(err)
			}
		}
	}
	tr.round = -1
	if !in.sp.sharded {
		// The workload's own deployment is not sharded: the shard
		// figures come from this serial replay.
		shardLoad(lv, st.shardSrv, time.Since(t0))
		shardStats(lv, st.nc.Stats())
	}
	return nil
}

// settle starts a timed phase with a fresh collection, so a cycle left
// running by a set-up step does not charge its mark assists to the
// phase's calls.
func settle() { runtime.GC() }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// layerTable turns the replay spans into per-query stage times, derives
// the self times, checks that they reconcile with the handler, and
// appends the per-layer table to the report.
func layerTable(in *inputs, tr *tracer, lv *layerVals, res *result) {
	sp := in.sp
	nq := float64(len(in.traceQ))
	per := map[string]float64{}      // mean per query, ns
	spreadNs := map[string]float64{} // quartile distance of the per-round means, ns
	for name, rounds := range stageTimes(tr) {
		var xs []float64
		for _, tot := range rounds {
			xs = append(xs, tot/nq)
		}
		per[name] = median(xs)
		q1, _, q3 := quartiles(xs)
		spreadNs[name] = q3 - q1
	}
	lv.v["textnorm.tokenize_ns"] = per["textnorm.tokenize"]
	lv.v["core.match_ns"] = per["core.match"]
	lv.v["adindex.search_ns"] = per["adindex.search"]
	lv.v["adindex.self_ns"] = selfTime(per["adindex.search"], per["textnorm.tokenize"], per["core.match"])
	lv.v["auction.select_ns"] = per["auction.select"]
	lv.v["server.handler_us"] = per["server.handler"] / 1e3
	lv.v["server.transport_us"] = selfTime(per["client.http"], per["server.handler"]) / 1e3
	lv.v["shard.query_us"] = per["shard.query"] / 1e3
	lv.v["multiserver.ids_rtt_us"] = per["multiserver.ids_rtt"] / 1e3
	lv.v["multiserver.meta_fetch_us"] = per["multiserver.meta_fetch"] / 1e3

	// The handler's self time: what it spends beyond the inner calls it
	// makes on this workload. A miss runs the search and the auction; a
	// cache hit only the auction; remote mode fans out instead.
	var inner []float64
	switch {
	case sp.sharded:
		inner = []float64{per["shard.query"]}
	case sp.cache:
		inner = []float64{per["auction.select"]}
	default:
		inner = []float64{per["adindex.search"], per["auction.select"]}
	}
	serverSelf := selfTime(per["server.handler"], inner...)
	lv.v["server.self_us"] = serverSelf / 1e3

	// Reconciliation: the self times of the stages the handler runs sum
	// to the handler's time by construction, so what is checked is that
	// no self time is negative beyond the handler's own round-to-round
	// spread, i.e. the separately timed inner calls fit inside it. A
	// failure is reported, not counted as a wrong answer: it says this
	// run's stage times disagree with each other, not that the program
	// answered wrongly.
	if !sp.sharded && !sp.cache {
		parts := []struct {
			name string
			ns   float64
		}{
			{"textnorm.tokenize", per["textnorm.tokenize"]},
			{"core.match", per["core.match"]},
			{"adindex.self", lv.v["adindex.self_ns"]},
			{"auction.select", per["auction.select"]},
			{"server.self", serverSelf},
		}
		sum, lowest := 0.0, parts[0]
		line := "reconcile:"
		for _, p := range parts {
			sum += p.ns
			if p.ns < lowest.ns {
				lowest = p
			}
			line += fmt.Sprintf(" %s %.2fus +", p.name, p.ns/1e3)
		}
		ok := lowest.ns >= -spreadNs["server.handler"]
		line = fmt.Sprintf("%s = %.2fus; server.handler %.2fus, spread %.2fus; lowest self time %s %.2fus: %s",
			line[:len(line)-2], sum/1e3, per["server.handler"]/1e3, spreadNs["server.handler"]/1e3,
			lowest.name, lowest.ns/1e3, map[bool]string{true: "ok", false: "FAILED"}[ok])
		res.notes = append(res.notes, line)
	}

	for _, d := range layerDefs {
		if v, ok := lv.v[d.name]; ok {
			res.notes = append(res.notes, fmt.Sprintf("layer %-38s %14.4f %-6s -> %s", d.name, v, d.unit, d.moves))
		} else {
			res.notes = append(res.notes, fmt.Sprintf("layer %-38s n/a: %s", d.name, lv.na[d.name]))
		}
	}
	for _, name := range sortedKeys(spreadNs) {
		res.notes = append(res.notes, fmt.Sprintf("stage %-24s %12.1f ns/query, round spread %.1f ns", name, per[name], spreadNs[name]))
	}
}
