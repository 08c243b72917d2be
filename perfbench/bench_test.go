package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"adindex"
	"adindex/internal/core"
)

// testSpec is a small churn workload, so inputs carry both a stream and
// a write schedule.
var testSpec = spec{name: "test", ads: 3000, queries: 300, cache: true, durable: true}

// serialize renders everything a run sends the program, in order.
func serialize(in *inputs) []byte {
	var b bytes.Buffer
	for _, qi := range in.stream {
		b.WriteString(in.queries[qi])
		b.WriteByte('\n')
	}
	for _, m := range in.writes {
		fmt.Fprintf(&b, "%v %d %q %d\n", m.insert, m.ad.ID, m.ad.Phrase, m.ad.Meta.BidMicros)
	}
	return b.Bytes()
}

func TestInputsDeterministic(t *testing.T) {
	a := serialize(makeInputs(testSpec, 7, 10))
	b := serialize(makeInputs(testSpec, 7, 10))
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different query streams or write schedules")
	}
	other := makeInputs(testSpec, 8, 10)
	c := serialize(other)
	if bytes.Equal(a, c) {
		t.Fatal("a second seed gave the same inputs")
	}
	first := makeInputs(testSpec, 7, 10)
	if equalStreams(first.stream, other.stream) {
		t.Error("a second seed gave the same query stream")
	}
	if equalWrites(first.writes, other.writes) {
		t.Error("a second seed gave the same write schedule")
	}
}

func equalStreams(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalWrites(a, b []mutation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].insert != b[i].insert || a[i].ad.Phrase != b[i].ad.Phrase || a[i].ad.Meta.BidMicros != b[i].ad.Meta.BidMicros {
			return false
		}
	}
	return true
}

func TestChurnSchedule(t *testing.T) {
	in := makeInputs(testSpec, 3, 10)
	live := map[uint64]bool{}
	for i, m := range in.writes {
		if m.ad.ID < churnIDBase {
			t.Fatalf("write %d: ad %d is not disjoint from the corpus", i, m.ad.ID)
		}
		if m.insert {
			live[m.ad.ID] = true
			continue
		}
		if !live[m.ad.ID] {
			t.Fatalf("write %d deletes ad %d, which is not live", i, m.ad.ID)
		}
		delete(live, m.ad.ID)
	}
	// An insert's paired delete may fall past the schedule's end.
	if got := len(liveAfter(in.writes)); got != len(live) || got < churnWindow || got > churnWindow+1 {
		t.Errorf("%d churn ads live at the end, want %d or %d", got, churnWindow, churnWindow+1)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4),
// which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestRatios(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := failFrac(3, 12); got != 0.25 {
		t.Errorf("failFrac(3, 12) = %v, want 0.25", got)
	}
	if got := failFrac(0, 0); got != 0 {
		t.Errorf("failFrac(0, 0) = %v, want 0", got)
	}
	if got := selfTime(100, 30, 20); got != 50 {
		t.Errorf("selfTime(100, 30, 20) = %v, want 50", got)
	}
	if got := selfTime(100); got != 100 {
		t.Errorf("selfTime(100) = %v, want 100", got)
	}
}

func TestCheckAgainst(t *testing.T) {
	in := &inputs{sp: spec{}, queries: []string{"red shoes"}}
	e := &expect{ids: []uint64{1, 2, 3}, top: []uint64{3, 1}}
	ok := `{"matched":3,"ads":[{"ID":3},{"ID":1}]}`
	if err := checkAgainst(in, 0, e, []byte(ok)); err != nil {
		t.Errorf("matching reply rejected: %v", err)
	}
	for _, bad := range []string{
		`{"matched":2,"ads":[{"ID":3},{"ID":1}]}`,
		`{"matched":3,"ads":[{"ID":1},{"ID":3}]}`,
		`{"matched":3,"ads":[{"ID":3},{"ID":1}],"truncated":true}`,
		`not json`,
	} {
		if checkAgainst(in, 0, e, []byte(bad)) == nil {
			t.Errorf("reply %s accepted", bad)
		}
	}
	in.sp.sharded = true
	if err := checkAgainst(in, 0, e, []byte(`{"matched":3,"ids":[1,2,3]}`)); err != nil {
		t.Errorf("matching remote reply rejected: %v", err)
	}
	if checkAgainst(in, 0, e, []byte(`{"matched":3,"ids":[1,2,4]}`)) == nil {
		t.Error("remote reply with a wrong ID accepted")
	}
}

func TestCheckAgainstChurn(t *testing.T) {
	in := &inputs{sp: spec{durable: true}, queries: []string{"red shoes"}}
	corpusAd := adindex.NewAd(1, "red shoes", adindex.Meta{BidMicros: 100})
	churnAd := adindex.NewAd(churnIDBase, "shoes", adindex.Meta{BidMicros: 500})
	e := &expect{ids: []uint64{1}, top: []uint64{1}, topAds: []adindex.Ad{corpusAd},
		churn: map[uint64]adindex.Ad{churnAd.ID: churnAd}}
	for _, good := range []string{
		`{"matched":1,"ads":[{"ID":1}]}`,
		fmt.Sprintf(`{"matched":2,"ads":[{"ID":%d},{"ID":1}]}`, churnAd.ID),
	} {
		if err := checkAgainst(in, 0, e, []byte(good)); err != nil {
			t.Errorf("reply %s rejected: %v", good, err)
		}
	}
	for _, bad := range []string{
		fmt.Sprintf(`{"matched":2,"ads":[{"ID":1},{"ID":%d}]}`, churnAd.ID), // out of rank order
		fmt.Sprintf(`{"matched":2,"ads":[{"ID":%d},{"ID":1}]}`, churnAd.ID+1),
		`{"matched":3,"ads":[{"ID":1}]}`,
		`{"matched":0,"ads":[]}`,
	} {
		if checkAgainst(in, 0, e, []byte(bad)) == nil {
			t.Errorf("reply %s accepted", bad)
		}
	}
}

// TestCountersRepeat checks the traced run's counter reconciliation on
// small inputs: the core counters equal View.BroadMatchCounted's on the
// same queries, and repeat exactly.
func TestCountersRepeat(t *testing.T) {
	in := makeInputs(spec{name: "test", ads: 3000, queries: 300}, 5, 10)
	a := coreCounters(in.oracle[0], in)
	b := coreCounters(core.New(in.ads, core.Options{}), makeInputs(in.sp, 5, 10))
	if a != b {
		t.Fatalf("counters differ between runs: %s vs %s", a.String(), b.String())
	}
	if a.Queries != int64(len(in.traceQ)) || a.HashProbes == 0 {
		t.Fatalf("implausible counters %s", a.String())
	}
	if v := viewCounters(adindex.Build(in.ads, adindex.Options{}).View(), in); v != a {
		t.Fatalf("core counters %s differ from View.BroadMatchCounted %s", a.String(), v.String())
	}
}

func TestLayerDefs(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range layerDefs {
		if seen[d.name] || !strings.Contains(d.name, ".") || d.unit == "" || d.moves == "" {
			t.Errorf("bad layer metric %+v", d)
		}
		seen[d.name] = true
	}
}
