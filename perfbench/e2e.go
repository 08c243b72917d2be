package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"adindex/internal/core"
	"adindex/internal/server"
)

const (
	// A run sets the program up at least minSetups times, and more (up
	// to maxSetups) until setupBudget has gone by; setup_s is the median.
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
	// warmup runs the loop before measuring, so caches fill and
	// connections are open.
	warmup = time.Second
)

// runEndToEnd is the untraced run: set-up, closed-loop reads (plus the
// paced writer on churn-durable), and the oracle checks.
func runEndToEnd(in *inputs, dur time.Duration, workDir string, rec *record) (*result, error) {
	sp := in.sp
	res := &result{correct: true}
	var setups []float64
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for began := time.Now(); len(setups) < minSetups ||
		(len(setups) < maxSetups && time.Since(began) < setupBudget); {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startStack(sp, in.ads, workDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	// The program keeps what it built; the benchmark lets go of the
	// corpus, so the live heap now is the program's plus the stream and
	// oracle answers, which the teardown measurement subtracts.
	numAds := len(in.ads)
	in.ads, in.oracle = nil, nil
	heapUp := liveHeap()

	l, err := openLoop(in, st, res)
	if err != nil {
		return nil, err
	}
	m0, err := fetchMetrics(st.addr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := l.begin(st, start); err != nil {
		return nil, err
	}
	l.run(start.Add(dur), true)
	elapsed := time.Since(start)
	lat, _, mismatches := l.finish(res)
	m1, err := fetchMetrics(st.addr)
	if err != nil {
		return nil, err
	}
	rec.CacheHitShare = ratio(float64(m1.Cache.Hits-m0.Cache.Hits),
		float64(m1.Cache.Hits-m0.Cache.Hits+m1.Cache.Misses-m0.Cache.Misses))
	_, a, f, err := finalCheck(in, st)
	res.attempted += a
	res.failed += f
	res.fail(err)

	n := len(lat)
	res.notes = append(res.notes, fmt.Sprintf("window_qps %.0f", l.windowQPS(dur)))
	res.add("setup_s", "s", median(setups), len(setups))
	res.add("qps", "req/s", float64(n)/elapsed.Seconds(), n)
	res.add("p50_us", "us", percentile(lat, 50)/1e3, n)
	res.addInfo("p99_us", "us", percentile(lat, 99)/1e3, n)
	if w := l.writer; w != nil {
		res.notes = append(res.notes, fmt.Sprintf("writer woke late: p50 %.0fus p99 %.0fus over %d sleeps",
			percentile(w.late, 50)/1e3, percentile(w.late, 99)/1e3, len(w.late)))
		res.addInfo("write_p50_us", "us", percentile(w.lat, 50)/1e3, len(w.lat))
		res.addInfo("write_p99_us", "us", percentile(w.lat, 99)/1e3, len(w.lat))
	}

	// Tear down, drop what the loop allocated after heapUp, and measure
	// again: the difference is the program's heap.
	l.close()
	if err := st.close(); err != nil {
		return nil, err
	}
	st, l, lat = nil, nil, nil
	heapDown := liveHeap()
	res.add("heap_b_per_ad", "B/ad", (heapUp-heapDown)/float64(numAds), 0)
	res.add("ok_frac", "ratio", 1-failFrac(res.failed, res.attempted), res.attempted)
	res.notes = append(res.notes, fmt.Sprintf("fail_frac %.6f (%d failed of %d attempted; %d sampled replies disagreed with the oracle)",
		failFrac(res.failed, res.attempted), res.failed, res.attempted, mismatches))
	return res, nil
}

// fillOverlay sends churn-durable's prefill mutations back to back
// before the measured window; they are checked but not timed.
func fillOverlay(addr string, writes []mutation, res *result) error {
	w, err := newWriter(addr, writes)
	if err != nil {
		return err
	}
	w.run(time.Now(), writes, 0)
	w.client.CloseIdleConnections()
	res.attempted += len(w.lat)
	res.failed += w.failed
	res.fail(w.firstErr)
	return nil
}

// finalCheck re-asks the traced sample once writes have stopped and
// compares every answer with the oracle over the final corpus: the
// generated ads plus, on churn-durable, the churn ads the schedule left
// live. A local index is also asked directly for the full ID set. It
// returns the expectations it used and the queries attempted and failed.
func finalCheck(in *inputs, st *stack) (exp map[int32]*expect, attempted, failed int, firstErr error) {
	exp = in.expect
	if in.sp.durable {
		final := append(generateCorpus(in.sp).Ads, liveAfter(in.writes)...)
		oracle := []*core.Index{core.New(final, core.Options{})}
		exp = map[int32]*expect{}
		for _, qi := range in.traceQ {
			exp[qi] = in.answer(qi, oracle, nil)
		}
	}
	note := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("final state: %w", err)
		}
	}
	r := newReader(in, searchURLs(st.addr, in.queries))
	defer r.client.CloseIdleConnections()
	for _, qi := range in.traceQ {
		attempted++
		status, err := r.get(r.urls[qi])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = checkAgainst(in, qi, exp[qi], r.buf.Bytes())
		}
		if err != nil {
			note(err)
			continue
		}
		if st.ix != nil {
			var got []uint64
			for _, ad := range st.ix.View().BroadMatch(in.queries[qi]) {
				got = append(got, ad.ID)
			}
			if !slices.Equal(got, exp[qi].ids) {
				note(fmt.Errorf("query %q: View.BroadMatch %d ids %v, oracle %d ids %v",
					in.queries[qi], len(got), head(got), len(exp[qi].ids), head(exp[qi].ids)))
			}
		}
	}
	return exp, attempted, failed, firstErr
}

// fetchMetrics reads the server's /metrics.
func fetchMetrics(addr string) (*server.MetricsSnapshot, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}
