package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adindex"
)

// newClient returns an HTTP client that holds one keep-alive connection:
// each closed-loop worker owns one, so the loop runs over exactly as many
// connections as workers.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// searchURLs prebuilds the /search URL of every distinct query, so the
// loop spends no time escaping.
func searchURLs(addr string, queries []string) []string {
	out := make([]string, len(queries))
	for i, q := range queries {
		out[i] = "http://" + addr + "/search?q=" + url.QueryEscape(q)
	}
	return out
}

// reader is one closed-loop connection: it sends the next stream
// request only after the previous reply has been read.
type reader struct {
	in     *inputs
	urls   []string
	client *http.Client
	tr     *tracer // nil when untraced

	lat     []int64   // measured read latencies, ns
	windows []int     // measured reads completed in each qpsWindow after start
	start   time.Time // zero: windows are not counted
	bytes   int64     // measured reply bytes

	// Failure accounting covers every request, warm-up included.
	sent       int
	failed     int // transport errors, non-2xx, oracle mismatches
	mismatches int
	firstErr   error
	buf        bytes.Buffer
}

func newReader(in *inputs, urls []string) *reader {
	return &reader{in: in, urls: urls, client: newClient(), lat: make([]int64, 0, 1<<18)}
}

// loop sends stream requests, taking positions from next, until stop.
// With record false (warm-up) latencies are not kept, but failures still
// count.
func (r *reader) loop(next *atomic.Int64, stop time.Time, record bool) {
	for time.Now().Before(stop) {
		r.sent++
		p := int(next.Add(1)-1) % len(r.in.stream)
		qi := r.in.stream[p]
		span := r.tr.begin("client.search", int64(p), noParent)
		t0 := time.Now()
		status, err := r.get(r.urls[qi])
		d := time.Since(t0)
		r.tr.end(span)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d: %s", r.urls[qi], status, bytes.TrimSpace(r.buf.Bytes()))
		}
		if err == nil && p%sampleStride == 0 {
			if err = checkAgainst(r.in, qi, r.in.expect[qi], r.buf.Bytes()); err != nil {
				r.mismatches++
			}
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
		if record {
			r.lat = append(r.lat, d.Nanoseconds())
			r.bytes += int64(r.buf.Len())
			if !r.start.IsZero() {
				w := int(time.Since(r.start) / qpsWindow)
				for len(r.windows) <= w {
					r.windows = append(r.windows, 0)
				}
				r.windows[w]++
			}
		}
	}
}

// qpsWindow is the width of the windows a reader counts reads in.
const qpsWindow = time.Second

// loop is a workload's closed loop on a running stack: its readers (two
// connections, or one beside churn-durable's writer), the stream
// position they share, and churn-durable's paced writer.
type loop struct {
	in      *inputs
	readers []*reader
	next    atomic.Int64
	writer  *writer
	wg      sync.WaitGroup
}

// openLoop fills churn-durable's overlay, then warms the readers up.
func openLoop(in *inputs, st *stack, res *result) (*loop, error) {
	n := 2
	if in.sp.durable {
		if err := fillOverlay(st.addr, in.writes[:prefill], res); err != nil {
			return nil, err
		}
		n = 1 // the second connection is the writer
	}
	urls := searchURLs(st.addr, in.queries)
	l := &loop{in: in}
	for i := 0; i < n; i++ {
		l.readers = append(l.readers, newReader(in, urls))
	}
	l.run(time.Now().Add(warmup), false)
	return l, nil
}

// begin opens the measured window at start: readers count their
// per-window rates from it, and churn-durable's paced writer starts.
func (l *loop) begin(st *stack, start time.Time) error {
	for _, r := range l.readers {
		r.start = start
	}
	if !l.in.sp.durable {
		return nil
	}
	paced := l.in.writes[prefill:]
	w, err := newWriter(st.addr, paced)
	if err != nil {
		return err
	}
	l.writer = w
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		w.run(start, paced, writeSpacing)
	}()
	return nil
}

// run runs every reader concurrently until stop.
func (l *loop) run(stop time.Time, record bool) {
	var wg sync.WaitGroup
	for _, r := range l.readers {
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			r.loop(&l.next, stop, record)
		}(r)
	}
	wg.Wait()
}

// measured returns how many reads the loop has recorded.
func (l *loop) measured() int {
	n := 0
	for _, r := range l.readers {
		n += len(r.lat)
	}
	return n
}

// finish waits for the writer and adds every operation the loop sent,
// and every failure, to res. It returns the recorded read latencies,
// reply bytes and oracle mismatches.
func (l *loop) finish(res *result) (lat []int64, bytes int64, mismatches int) {
	l.wg.Wait()
	for _, r := range l.readers {
		lat = append(lat, r.lat...)
		bytes += r.bytes
		mismatches += r.mismatches
		res.attempted += r.sent
		res.failed += r.failed
		res.fail(r.firstErr)
	}
	if w := l.writer; w != nil {
		res.attempted += len(w.lat)
		res.failed += w.failed
		res.fail(w.firstErr)
	}
	return lat, bytes, mismatches
}

// windowQPS returns the read rate of every whole window of a measured
// window of length dur.
func (l *loop) windowQPS(dur time.Duration) []float64 {
	out := make([]float64, int(dur/qpsWindow))
	for _, r := range l.readers {
		for i := 0; i < len(out) && i < len(r.windows); i++ {
			out[i] += float64(r.windows[i]) / qpsWindow.Seconds()
		}
	}
	return out
}

// close drops the loop's idle connections.
func (l *loop) close() {
	for _, r := range l.readers {
		r.client.CloseIdleConnections()
	}
	if l.writer != nil {
		l.writer.client.CloseIdleConnections()
	}
}

// get fetches u into r.buf.
func (r *reader) get(u string) (int, error) {
	resp, err := r.client.Get(u)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	r.buf.Reset()
	if _, err := r.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// reply is the part of a /search response the oracle check reads.
type reply struct {
	Matched int `json:"matched"`
	Ads     []struct {
		ID   uint64
		Meta struct{ BidMicros int64 }
	} `json:"ads"`
	IDs       []uint64 `json:"ids"`
	Degraded  bool     `json:"degraded"`
	Truncated bool     `json:"truncated"`
}

// checkAgainst compares one /search response with the oracle's answer e. Local
// workloads return the auction's winners and the full match count;
// sharded-tcp returns the full ID list. On churn-durable a reply may
// also hold any churn ad of the schedule that matches the query, since
// which are live depends on timing; the answer must equal the auction
// over the corpus matches plus the churn ads it returned, and the match
// count must lie between the corpus's and that plus every churn match.
func checkAgainst(in *inputs, qi int32, e *expect, body []byte) error {
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Errorf("query %q: decode reply: %w", in.queries[qi], err)
	}
	if rp.Degraded || rp.Truncated {
		return fmt.Errorf("query %q: degraded=%v truncated=%v", in.queries[qi], rp.Degraded, rp.Truncated)
	}
	if in.sp.sharded {
		if rp.Matched != len(e.ids) || !slices.Equal(rp.IDs, e.ids) {
			return fmt.Errorf("query %q: got %d ids %v, oracle %d ids %v",
				in.queries[qi], len(rp.IDs), head(rp.IDs), len(e.ids), head(e.ids))
		}
		return nil
	}
	got := make([]uint64, len(rp.Ads))
	for i, a := range rp.Ads {
		got[i] = a.ID
	}
	want, lo, hi := e.top, len(e.ids), len(e.ids)
	if e.churn != nil {
		cand := slices.Clone(e.topAds)
		for _, id := range got {
			if id < churnIDBase {
				continue
			}
			ad, ok := e.churn[id]
			if !ok {
				return fmt.Errorf("query %q: returned churn ad %d that does not match", in.queries[qi], id)
			}
			cand = append(cand, ad)
		}
		want = want[:0:0]
		for _, ad := range adindex.SelectAds(in.queries[qi], cand, selection) {
			want = append(want, ad.ID)
		}
		hi += len(e.churn)
	}
	if rp.Matched < lo || rp.Matched > hi || !slices.Equal(got, want) {
		return fmt.Errorf("query %q: matched %d (oracle %d..%d), auction %v, oracle %v",
			in.queries[qi], rp.Matched, lo, hi, got, want)
	}
	return nil
}

func head(ids []uint64) []uint64 {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}

// writer sends mutations over one connection. On churn-durable it is
// paced: a mutation's latency runs from its due time, so a stall also
// charges the writes queued behind it.
type writer struct {
	client *http.Client
	base   string
	bodies [][]byte

	lat      []int64 // write latencies, ns
	late     []int64 // how late the writer woke for a due write, ns
	failed   int
	firstErr error
}

type insertBody struct {
	ID     uint64       `json:"id"`
	Phrase string       `json:"phrase"`
	Meta   adindex.Meta `json:"meta"`
}

type deleteBody struct {
	ID     uint64 `json:"id"`
	Phrase string `json:"phrase"`
}

func newWriter(addr string, writes []mutation) (*writer, error) {
	w := &writer{client: newClient(), base: "http://" + addr}
	for _, m := range writes {
		var v any = deleteBody{ID: m.ad.ID, Phrase: m.ad.Phrase}
		if m.insert {
			v = insertBody{ID: m.ad.ID, Phrase: m.ad.Phrase, Meta: m.ad.Meta}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, b)
	}
	return w, nil
}

// run sends every mutation. With a positive spacing mutation i is due
// at start + i·spacing and is sent no earlier. When the previous write
// was still in flight at the due time, the program kept this one
// waiting, and it is timed from the due time; otherwise the writer slept
// until the due time and it is timed from when the sleep ended, so the
// timer's overshoot (recorded in late) is not charged to the program.
// With zero spacing each is sent as soon as the previous one is answered.
func (w *writer) run(start time.Time, writes []mutation, spacing time.Duration) {
	for i, m := range writes {
		from := time.Now()
		if spacing > 0 {
			due := start.Add(time.Duration(i) * spacing)
			from = due
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
				from = time.Now()
				w.late = append(w.late, from.Sub(due).Nanoseconds())
			}
		}
		err := w.send(m, w.bodies[i])
		w.lat = append(w.lat, time.Since(from).Nanoseconds())
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
}

func (w *writer) send(m mutation, body []byte) error {
	path := "/delete"
	if m.insert {
		path = "/insert"
	}
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		OK    bool `json:"ok"`
		Found bool `json:"found"`
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("POST %s: decode: %w", path, err)
	}
	if (m.insert && !out.OK) || (!m.insert && !out.Found) {
		return errors.New("POST " + path + ": ad " + fmt.Sprint(m.ad.ID) + " not applied")
	}
	return nil
}
