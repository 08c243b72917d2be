// Command perfbench is the repository's serving benchmark. It stands up
// one workload's real serving stack in-process, drives it from outside
// over HTTP (and, for sharded-tcp, the TCP shard protocol behind it) in a
// closed loop over two connections, checks sampled answers against the
// core.ReferenceBroadMatch oracle, and prints every metric with its unit.
// With -trace 1 it instead replays a fixed sample through each layer's
// public functions under spans and prints the per-layer table.
//
// Run it through run.sh from the repository root; README.md describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// outDir receives span files, per-layer tables and durable state; it is
// relative to the directory the benchmark runs in.
const outDir = ".bench_build/perfbench"

// watchdog bounds a run: a hung run fails instead of blocking forever.
const watchdog = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: broad-large, broad-hot, churn-durable or sharded-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	sp, ok := findSpec(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	workDir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dur := time.Duration(*seconds) * time.Second
	in := makeInputs(sp, *seed, *seconds)
	rec := newRecord(sp, *seed, *seconds, *trace == 1, in.properties())
	var res *result
	if *trace == 1 {
		res, err = runTraced(in, dur, workDir, rec)
	} else {
		res, err = runEndToEnd(in, dur, workDir, rec)
	}
	if rerr := os.RemoveAll(workDir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind it (0: not a sampled figure)
	// info figures are printed but left out of the result object,
	// because BENCHMARK.json does not gate them (README.md says why).
	info bool
}

// result is what one run prints.
type result struct {
	correct   bool
	attempted int
	failed    int
	errors    []string
	metrics   []metric
	notes     []string // extra report lines (per-layer table, reconciliation)
}

func (r *result) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

func (r *result) addInfo(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, info: true})
}

func (r *result) fail(err error) {
	if err == nil {
		return
	}
	r.correct = false
	if len(r.errors) < 5 {
		r.errors = append(r.errors, err.Error())
	}
}

// record is the run record printed with every result.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Inputs     props  `json:"inputs"`
	// CacheHitShare is the result cache's measured hit share over the
	// measured loop (0 with the cache off).
	CacheHitShare float64 `json:"cache_hit_share"`
}

func newRecord(sp spec, seed int64, seconds int, traced bool, pr props) *record {
	return &record{
		Workload: sp.name, Seed: seed, Seconds: seconds, Traced: traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Inputs: pr,
	}
}

// print writes the human-readable report, then the result object as the
// last line of standard output.
func (r *result) print(rec *record) error {
	rj, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", rj)
	for _, l := range r.notes {
		fmt.Println(l)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("metric %-36s %14.4f %-8s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.info {
			line += " (not gated)"
		}
		fmt.Println(line)
	}
	for _, e := range r.errors {
		fmt.Printf("error %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		if !m.info {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// liveHeap forces a collection and returns the live heap it marked.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// writeLines writes lines to a file under outDir named for the run.
func writeLines(rec *record, suffix string, lines []string) (string, error) {
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s", rec.Workload, rec.Seed, suffix))
	return path, os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
