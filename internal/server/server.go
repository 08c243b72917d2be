// Package server is the production query-serving layer over an
// adindex.Index: a sharded epoch-invalidated result cache, admission
// control with bounded queueing and load shedding, a stdlib-only metrics
// registry with Figure-9-style latency histograms, and managed HTTP
// lifecycle (timeouts, health/readiness probes, signal-driven graceful
// shutdown that drains in-flight requests).
//
// Endpoints:
//
//	GET  /search?q=...&type=broad|exact|phrase   retrieval (cached, admitted)
//	     &rewrite=on|off                         approximate broad match (typo/synonym rewrites)
//	POST /search/batch                           broad-match many queries on one snapshot
//	POST /insert                                 add an ad (JSON body)
//	POST /delete                                 remove an ad (JSON body)
//	GET  /stats                                  index structure statistics
//	POST /optimize                               re-optimize layout from observed queries
//	GET  /metrics                                serving metrics (JSON)
//	GET  /healthz                                liveness (200 while process is up)
//	GET  /readyz                                 readiness (503 while shutting down)
//	GET  /debug/pprof/*                          runtime profiling
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adindex"
	"adindex/internal/durable"
	"adindex/internal/multiserver"
	"adindex/internal/shard"
	"adindex/internal/textnorm"
)

// Config tunes the serving layer. The zero value selects production-safe
// defaults for every knob.
type Config struct {
	// CacheEntries is the total result-cache capacity across shards.
	// 0 selects DefaultCacheEntries; negative disables caching.
	CacheEntries int
	// CacheShards is the result-cache shard count (rounded up to a power
	// of two). 0 selects DefaultCacheShards.
	CacheShards int
	// MaxInflight bounds concurrently executing /search requests.
	// 0 selects DefaultMaxInflight.
	MaxInflight int
	// MaxQueue bounds /search requests waiting for an execution slot;
	// requests beyond it are shed with 503. 0 selects 4×MaxInflight;
	// negative means no queue (shed as soon as all slots are busy).
	MaxQueue int
	// RequestTimeout is the per-request deadline, covering queue wait and
	// execution. 0 selects DefaultRequestTimeout.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 503 shed responses.
	// 0 selects 1s.
	RetryAfter time.Duration
	// QueryBudget bounds the index work (cost-model units: subset probes
	// plus records scanned) one broad-match query may perform; exhausted
	// queries return their verified partial results flagged truncated.
	// 0 disables the cost bound (the request deadline still applies).
	QueryBudget int64
	// ShedTargetDelay enables CoDel-style admission shedding: when the
	// minimum queue wait stays above this target for a full interval, new
	// queue entrants are shed with 503 + Retry-After until the queue
	// drains. 0 disables delay shedding (the hard queue bound remains).
	ShedTargetDelay time.Duration
	// QuarantineTTL enables the poison-query quarantine: queries that
	// panic the match path (instantly) or repeatedly blow their budget
	// (DefaultQuarantineStrikes within one TTL) are fast-rejected at
	// admission for this long. 0 disables quarantine.
	QuarantineTTL time.Duration
	// TrackCost enables per-query modeled-cost accounting on the broad
	// match path: access counters are attributed to the index
	// (Index.RecordQueryCost, feeding adaptation's recalibration) and the
	// modeled cost lands in the /metrics adapt.query_cost histogram.
	TrackCost bool
	// Adapt surfaces the continuous-adaptation control loop in /metrics
	// (rounds, moves, modeled-cost trend). The loop itself is started by
	// the owner of the index (cmd/adserve's -adapt-interval flag or
	// Index.StartAdapt); this flag only controls reporting.
	Adapt bool
	// Selection, when non-nil, applies the auction-side filters
	// (exclusion keywords, bid floor, ranking, result cap) to matches
	// before they are returned. The cache stores the answer as served,
	// winners included.
	Selection *adindex.Selection
	// ReadTimeout, WriteTimeout, and IdleTimeout configure the
	// http.Server; zero values select 10s, 30s, and 120s.
	ReadTimeout, WriteTimeout, IdleTimeout time.Duration
	// ShutdownTimeout bounds the graceful drain in Run. 0 selects 10s.
	ShutdownTimeout time.Duration
	// BackendLossGrace applies to remote-mode servers (NewRemote): when
	// some backend shard (or the ad-metadata server) has been
	// continuously unreachable for longer than this, /readyz reports 503
	// so load balancers route around the sustained loss. Transient blips
	// shorter than the grace never flip readiness. 0 selects 10s.
	BackendLossGrace time.Duration
	// Logger receives lifecycle log lines; nil selects log.Default().
	Logger *log.Logger
}

// Defaults for Config's zero values.
const (
	DefaultCacheEntries   = 65536
	DefaultCacheShards    = 16
	DefaultMaxInflight    = 256
	DefaultRequestTimeout = time.Second
)

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.CacheShards == 0 {
		c.CacheShards = DefaultCacheShards
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.ShutdownTimeout == 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.BackendLossGrace == 0 {
		c.BackendLossGrace = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Server wraps an adindex.Index in the serving layer. Create with New,
// start with Start (or Run for signal-managed lifetime), stop with
// Shutdown.
type Server struct {
	// localMode distinguishes a local-index server (even one still
	// recovering, with no index installed yet) from a remote fan-out
	// server. Immutable after construction.
	localMode bool
	// localIx is the local index; nil in remote mode and while a
	// recovering server (NewRecovering) has not had InstallIndex called.
	// Atomic because handlers race with InstallIndex.
	localIx atomic.Pointer[adindex.Index]
	// recovery is the durable recovery report installed alongside the
	// index, surfaced in /metrics.
	recovery atomic.Pointer[durable.RecoveryReport]
	remote   *shard.NetClient // nil in local mode
	// elastic, when attached, surfaces live-resharding status in
	// /metrics and /readyz and enables /admin/rebalance.
	elastic    atomic.Pointer[rebalHolder]
	cfg        Config
	cache      *Cache
	limiter    *Limiter
	quarantine *Quarantine // nil when Config.QuarantineTTL is 0
	metrics    *Registry
	httpSrv    *http.Server

	lnMu     sync.Mutex
	ln       net.Listener
	serveErr chan error
	ready    atomic.Bool

	// handlerDelay artificially lengthens /search execution; used by
	// shutdown-drain and saturation tests.
	handlerDelay time.Duration
	// panicOn makes /search panic on this exact query string; used by
	// panic-containment tests.
	panicOn string
}

// New builds a serving layer over ix. The server owns no goroutines until
// Start.
func New(ix *adindex.Index, cfg Config) *Server {
	return newServer(ix, nil, cfg)
}

// NewRecovering builds a local-mode serving layer with no index yet:
// /healthz answers 200 and /readyz answers 503 "recovering" while the
// durable state loads, so orchestrators see a live-but-not-ready process
// instead of a connection refusal during a long WAL replay. Index-backed
// endpoints answer 503 until InstallIndex.
func NewRecovering(cfg Config) *Server {
	return newServer(nil, nil, cfg)
}

// InstallIndex publishes a recovered index (and its recovery report) on
// a server built with NewRecovering; /readyz flips to 200. Safe to call
// while the server is already accepting requests.
func (s *Server) InstallIndex(ix *adindex.Index, report *durable.RecoveryReport) {
	if report != nil {
		s.recovery.Store(report)
	}
	s.localIx.Store(ix)
}

// local returns the local index, or nil in remote mode / while
// recovering.
func (s *Server) local() *adindex.Index { return s.localIx.Load() }

// NewRemote builds a serving layer that answers /search by fanning out to
// a remote sharded deployment through nc instead of a local index. The
// distributed client's fault tolerance surfaces here: degraded responses
// are flagged and counted, /metrics includes retry/breaker/degradation
// counters, and /readyz turns unready after sustained backend loss
// (Config.BackendLossGrace). Mutating and index-introspection endpoints
// (insert/delete/stats/optimize) respond 501, and the result cache is
// bypassed — the remote corpus has no visible mutation epoch to
// invalidate on.
func NewRemote(nc *shard.NetClient, cfg Config) *Server {
	return newServer(nil, nc, cfg)
}

func newServer(ix *adindex.Index, nc *shard.NetClient, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		localMode:  nc == nil,
		remote:     nc,
		cfg:        cfg,
		cache:      NewCache(cfg.CacheEntries, cfg.CacheShards),
		limiter:    NewLimiterShed(cfg.MaxInflight, cfg.MaxQueue, cfg.ShedTargetDelay),
		quarantine: NewQuarantine(cfg.QuarantineTTL),
		metrics:    &Registry{},
		serveErr:   make(chan error, 1),
	}
	if ix != nil {
		s.localIx.Store(ix)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/search/batch", s.handleSearchBatch)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/admin/rebalance", s.handleRebalance)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.httpSrv = &http.Server{
		Handler:      mux,
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
		IdleTimeout:  cfg.IdleTimeout,
		ErrorLog:     cfg.Logger,
	}
	return s
}

// Metrics returns the server's metrics registry (live counters).
func (s *Server) Metrics() *Registry { return s.metrics }

// Handler returns the server's root handler (useful for tests and for
// mounting under an outer mux).
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Start binds addr and begins serving in a background goroutine. It
// returns a bind error immediately; serve-loop errors surface via Run or
// are logged.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: bind %s: %w", addr, err)
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.ready.Store(true)
	go func() {
		err := s.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
			return
		}
		s.serveErr <- nil
	}()
	return nil
}

// Addr returns the bound listen address ("" before Start). Safe to call
// from any goroutine, e.g. to discover the port while Run executes.
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: readiness flips to 503 (so load
// balancers stop routing here), the listener closes, and in-flight
// requests drain until done or ctx expires. After the drain, a durable
// index's WAL is flushed to stable storage, so every mutation this
// server acknowledged survives the process exit even under
// durable.SyncNone.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	err := s.httpSrv.Shutdown(ctx)
	if ix := s.local(); ix != nil {
		if serr := ix.SyncDurable(); serr != nil {
			s.cfg.Logger.Printf("wal flush on shutdown: %v", serr)
			if err == nil {
				err = serr
			}
		}
	}
	return err
}

// Run starts the server on addr and blocks until SIGINT/SIGTERM or a
// serve-loop failure, then drains gracefully. It is the main loop of
// cmd/adserve.
func (s *Server) Run(addr string) error {
	// Register the signal handler before binding: once the port is
	// reachable, a SIGTERM is guaranteed to be caught.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.Start(addr); err != nil {
		return err
	}
	s.cfg.Logger.Printf("listening on http://%s", s.Addr())
	return s.awaitShutdown(sigCtx)
}

// AwaitShutdown blocks until SIGINT/SIGTERM or a serve-loop failure,
// then drains gracefully. It is Run for callers that Start the server
// themselves — the durable cmd/adserve flow binds the port first (so
// /healthz answers during a long recovery), installs the recovered
// index, then parks here.
func (s *Server) AwaitShutdown() error {
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.awaitShutdown(sigCtx)
}

func (s *Server) awaitShutdown(sigCtx context.Context) error {
	select {
	case err := <-s.serveErr:
		return err
	case <-sigCtx.Done():
	}
	s.cfg.Logger.Printf("shutting down: draining in-flight requests (up to %v)", s.cfg.ShutdownTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	s.cfg.Logger.Printf("drained cleanly")
	return nil
}

// cacheKey maps a query to its result-cache key. Broad match is order- and
// duplicate-insensitive, so all orderings of the same word set share one
// entry (keyed by the canonical set). Exact and phrase match depend on
// token order, so they key by the normalized token sequence.
func cacheKey(matchType, q string) string {
	switch matchType {
	case "exact", "phrase":
		return matchType[:1] + "\x00" + strings.Join(textnorm.Tokenize(q), "\x1f")
	default:
		return "b\x00" + textnorm.SetKey(textnorm.WordSet(q))
	}
}

type searchResponse struct {
	Query   string       `json:"query"`
	Type    string       `json:"type"`
	Matched int          `json:"matched"`
	Cached  bool         `json:"cached"`
	Ads     []adindex.Ad `json:"ads"`
	TookUS  int64        `json:"took_us"`

	// Rewrite-mode fields: approximate broad match returns each ad with
	// how it was reached (exact / synonym / fuzzy+distance) instead of
	// bare ads, plus the per-query expansion stats.
	Matches []adindex.Match   `json:"matches,omitempty"`
	Rewrite *rewriteStatsJSON `json:"rewrite,omitempty"`

	// Remote-mode fields: the distributed deployment serves IDs (+ per-ID
	// metadata) rather than full ad records, and flags degradation.
	IDs          []uint64             `json:"ids,omitempty"`
	Meta         []multiserver.AdMeta `json:"meta,omitempty"`
	Degraded     bool                 `json:"degraded,omitempty"`
	FailedShards []int                `json:"failed_shards,omitempty"`
	MetaMissing  bool                 `json:"meta_missing,omitempty"`

	// Overload-armor fields: a budget-truncated answer is a verified
	// ID-ordered subset of the full answer, flagged rather than silently
	// short; CutoffApplied surfaces the MaxQueryWords word drop.
	Truncated     bool  `json:"truncated,omitempty"`
	CutoffApplied bool  `json:"cutoff_applied,omitempty"`
	CostSpent     int64 `json:"cost_spent,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	matchType := r.URL.Query().Get("type")
	switch matchType {
	case "":
		matchType = "broad"
	case "broad", "exact", "phrase":
	default:
		s.metrics.BadRequests.Add(1)
		http.Error(w, "type must be broad, exact, or phrase", http.StatusBadRequest)
		return
	}
	rewriteMode := r.URL.Query().Get("rewrite")
	switch rewriteMode {
	case "", "off", "on":
	default:
		s.metrics.BadRequests.Add(1)
		http.Error(w, "rewrite must be on or off", http.StatusBadRequest)
		return
	}
	if rewriteMode == "on" && matchType != "broad" {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "rewrite=on requires type=broad", http.StatusBadRequest)
		return
	}

	// Poison-query quarantine: a fingerprint that recently panicked the
	// match path or repeatedly blew its budget is rejected before it can
	// occupy an admission slot.
	key := cacheKey(matchType, q)
	if s.quarantine.Check(key) {
		s.metrics.QuarantineRejects.Add(1)
		s.shed(w)
		return
	}

	// Admission: the deadline covers queue wait and execution.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if err := s.limiter.Acquire(ctx); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.metrics.Shed.Add(1)
		case errors.Is(err, ErrOverload):
			s.metrics.Shed.Add(1)
		default:
			s.metrics.Timeouts.Add(1)
		}
		s.shed(w)
		return
	}
	defer s.limiter.Release()
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	s.metrics.reqCounter(matchType).Add(1)

	// Panic containment: a query that panics the match path answers 500
	// and quarantines its fingerprint instead of killing the process.
	// The deferred limiter/in-flight releases above still run.
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.Panics.Add(1)
			s.quarantine.NotePanic(key)
			s.cfg.Logger.Printf("search panic on %q (fingerprint quarantined): %v", q, rec)
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
	}()

	if s.remote != nil {
		if rewriteMode == "on" {
			s.metrics.BadRequests.Add(1)
			http.Error(w, "rewrite is not supported in remote (distributed) mode",
				http.StatusNotImplemented)
			return
		}
		s.searchRemote(w, ctx, q, matchType, start)
		return
	}
	ix := s.local()
	if ix == nil {
		s.notReady(w)
		return
	}
	if rewriteMode == "on" {
		s.searchRewrite(w, ix, q, start)
		return
	}

	if s.panicOn != "" && q == s.panicOn {
		panic("injected test panic")
	}
	ix.Observe(q)
	// A View pins the epoch and the match results to the same snapshot:
	// a cache entry can never pair an epoch with results computed against
	// a different index state, so a stale result is never served.
	view := ix.View()
	epoch := view.Epoch()
	res, hit := s.cache.Get(key, epoch)
	if hit {
		res.CostSpent = 0 // a hit spends no index work
	} else {
		switch matchType {
		case "exact":
			res = s.selectFrom(q, view.ExactMatch(q))
		case "phrase":
			res = s.selectFrom(q, view.PhraseMatch(q))
		default:
			// Broad match runs under the cost budget and the request
			// deadline; a truncated answer is a verified subset, flagged.
			// The auction runs inside the search, before copy-out.
			deadline, _ := ctx.Deadline()
			qb := adindex.QueryBudget{
				MaxCost:  s.cfg.QueryBudget,
				Deadline: deadline,
			}
			if s.cfg.TrackCost {
				// The same search, with its access counters attributed to
				// the index (feeding adaptation's cost-model recalibration)
				// and its modeled cost recorded in the per-query cost
				// histogram.
				var c adindex.Counters
				matchStart := time.Now()
				res = view.Search(q, qb, s.cfg.Selection, &c)
				ix.RecordQueryCost(&c, time.Since(matchStart).Nanoseconds())
				s.metrics.Cost.Observe(c.Cost(ix.Model()))
			} else {
				res = view.Search(q, qb, s.cfg.Selection, nil)
			}
		}
		if res.Truncated {
			// Never cache a partial answer, and strike the fingerprint:
			// enough blowouts inside the TTL window quarantine it.
			s.metrics.BudgetTruncated.Add(1)
			s.quarantine.NoteBudgetBlown(key)
		} else {
			s.cache.Put(key, epoch, res)
		}
	}
	if res.CutoffApplied {
		s.metrics.Cutoffs.Add(1)
	}
	if s.handlerDelay > 0 {
		time.Sleep(s.handlerDelay)
	}

	took := time.Since(start)
	s.writeJSON(w, searchResponse{
		Query:         q,
		Type:          matchType,
		Matched:       res.Matched,
		Cached:        hit,
		Ads:           res.Ads,
		TookUS:        took.Microseconds(),
		Truncated:     res.Truncated,
		CutoffApplied: res.CutoffApplied,
		CostSpent:     res.CostSpent,
	})
	s.metrics.Latency.Observe(time.Since(start))
}

// selectFrom is the answer served for exact or phrase matches: the
// auction winners when the server has a Selection, else every match.
func (s *Server) selectFrom(q string, matches []adindex.Ad) adindex.MatchResult {
	res := adindex.MatchResult{Ads: matches, Matched: len(matches)}
	if s.cfg.Selection != nil {
		res.Ads = adindex.SelectAds(q, matches, *s.cfg.Selection)
	}
	return res
}

// searchRewrite answers /search?rewrite=on with approximate broad match:
// the exact probe plus the planner's typo/synonym variants, each result
// tagged with how it was reached. Rewrite results bypass the result
// cache (it stores bare ads keyed by the canonical word set; rewrite
// answers depend on the vocabulary too) and apply SelectMatches — the
// discount-aware auction — when the server is configured with Selection.
func (s *Server) searchRewrite(w http.ResponseWriter, ix *adindex.Index, q string, start time.Time) {
	if !ix.RewriteEnabled() {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "rewrite is not enabled on this index (start with -rewrite)",
			http.StatusBadRequest)
		return
	}
	ix.Observe(q)
	matches, rstats := ix.BroadMatchRewrite(q)
	s.metrics.noteRewrite(rstats)
	matched := len(matches)
	if s.cfg.Selection != nil {
		matches = adindex.SelectMatches(q, matches, *s.cfg.Selection)
	}
	took := time.Since(start)
	s.writeJSON(w, searchResponse{
		Query:   q,
		Type:    "broad",
		Matched: matched,
		Matches: matches,
		Rewrite: newRewriteStatsJSON(rstats),
		TookUS:  took.Microseconds(),
	})
	s.metrics.Latency.Observe(time.Since(start))
}

// MaxBatchQueries bounds a single /search/batch request.
const MaxBatchQueries = 256

type batchRequest struct {
	Queries []string `json:"queries"`
	// Rewrite selects approximate broad match for the whole batch:
	// "" or "off" for the exact cached path, "on" for typo/synonym
	// rewrites (uncached, requires a rewrite-enabled index).
	Rewrite string `json:"rewrite,omitempty"`
}

type batchResult struct {
	Query   string          `json:"query"`
	Matched int             `json:"matched"`
	Cached  bool            `json:"cached"`
	Ads     []adindex.Ad    `json:"ads"`
	Matches []adindex.Match `json:"matches,omitempty"` // rewrite mode only
}

type batchResponse struct {
	Epoch   uint64        `json:"epoch"`
	Results []batchResult `json:"results"`
	TookUS  int64         `json:"took_us"`
}

// handleSearchBatch answers POST /search/batch: broad-match for up to
// MaxBatchQueries queries evaluated against one consistent index snapshot
// (adindex.View), so every result in the response reflects the same epoch.
// Cache hits are served per query; misses run View.Search on that view
// and are cached under its epoch.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.remote != nil {
		http.Error(w, "batch search is not supported in remote (distributed) mode",
			http.StatusNotImplemented)
		return
	}
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "bad batch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 || len(req.Queries) > MaxBatchQueries {
		s.metrics.BadRequests.Add(1)
		http.Error(w, fmt.Sprintf("batch requires 1..%d queries", MaxBatchQueries),
			http.StatusBadRequest)
		return
	}
	for _, q := range req.Queries {
		if strings.TrimSpace(q) == "" {
			s.metrics.BadRequests.Add(1)
			http.Error(w, "batch contains an empty query", http.StatusBadRequest)
			return
		}
	}
	switch req.Rewrite {
	case "", "off", "on":
	default:
		s.metrics.BadRequests.Add(1)
		http.Error(w, "rewrite must be on or off", http.StatusBadRequest)
		return
	}

	// One admission slot covers the whole batch (a batch is one request's
	// worth of work from the limiter's perspective).
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if err := s.limiter.Acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverload) {
			s.metrics.Shed.Add(1)
		} else {
			s.metrics.Timeouts.Add(1)
		}
		s.shed(w)
		return
	}
	defer s.limiter.Release()
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	s.metrics.ReqBroad.Add(uint64(len(req.Queries)))

	// Batch panic containment: same recovery as /search, minus the
	// quarantine strike (no single fingerprint to blame).
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.Panics.Add(1)
			s.cfg.Logger.Printf("batch search panic: %v", rec)
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
	}()

	ix := s.local()
	if ix == nil {
		s.notReady(w)
		return
	}
	view := ix.View()
	epoch := view.Epoch()
	if req.Rewrite == "on" {
		if !ix.RewriteEnabled() {
			s.metrics.BadRequests.Add(1)
			http.Error(w, "rewrite is not enabled on this index (start with -rewrite)",
				http.StatusBadRequest)
			return
		}
		results := make([]batchResult, len(req.Queries))
		for i, q := range req.Queries {
			ix.Observe(q)
			matches, rstats := view.BroadMatchRewrite(q)
			s.metrics.noteRewrite(rstats)
			matched := len(matches)
			if s.cfg.Selection != nil {
				matches = adindex.SelectMatches(q, matches, *s.cfg.Selection)
			}
			results[i] = batchResult{Query: q, Matched: matched, Matches: matches}
		}
		s.writeJSON(w, batchResponse{
			Epoch:   epoch,
			Results: results,
			TookUS:  time.Since(start).Microseconds(),
		})
		s.metrics.Latency.Observe(time.Since(start))
		return
	}
	// Misses run the same search as /search, unbudgeted, so both endpoints
	// fill their shared cache entries with the same answer.
	results := make([]batchResult, len(req.Queries))
	for i, q := range req.Queries {
		ix.Observe(q)
		key := cacheKey("broad", q)
		res, hit := s.cache.Get(key, epoch)
		if !hit {
			res = view.Search(q, adindex.QueryBudget{}, s.cfg.Selection, nil)
			s.cache.Put(key, epoch, res)
		}
		results[i] = batchResult{Query: q, Matched: res.Matched, Cached: hit, Ads: res.Ads}
	}
	s.writeJSON(w, batchResponse{
		Epoch:   epoch,
		Results: results,
		TookUS:  time.Since(start).Microseconds(),
	})
	s.metrics.Latency.Observe(time.Since(start))
}

// searchRemote answers a /search through the distributed shard client.
// Only broad match exists on the wire protocol; a degraded (partial or
// ID-only) answer is served with its degradation flags rather than
// failing, and total backend failure maps to 502. The request deadline
// rides the wire to every backend attempt; a query whose budget runs
// out mid-fan-out answers 504.
func (s *Server) searchRemote(w http.ResponseWriter, ctx context.Context, q, matchType string, start time.Time) {
	if matchType != "broad" {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "remote serving supports type=broad only", http.StatusNotImplemented)
		return
	}
	deadline, _ := ctx.Deadline()
	res, err := s.remote.QueryResultDeadline(q, deadline)
	if err != nil {
		if errors.Is(err, multiserver.ErrDeadlineExpired) {
			s.metrics.Timeouts.Add(1)
			http.Error(w, "request deadline expired", http.StatusGatewayTimeout)
			return
		}
		s.metrics.BackendErrors.Add(1)
		http.Error(w, "backend query failed: "+err.Error(), http.StatusBadGateway)
		return
	}
	if res.Degraded {
		s.metrics.Degraded.Add(1)
	}
	if res.Truncated {
		// A truncated remote answer means backends burned a full budget on
		// this fingerprint; strike it so a retry loop gets quarantined the
		// same way it would against a local index.
		s.metrics.BudgetTruncated.Add(1)
		s.quarantine.NoteBudgetBlown(cacheKey(matchType, q))
	}
	if res.CutoffApplied {
		s.metrics.Cutoffs.Add(1)
	}
	s.writeJSON(w, searchResponse{
		Query:         q,
		Type:          matchType,
		Matched:       len(res.IDs),
		IDs:           res.IDs,
		Meta:          res.Meta,
		Degraded:      res.Degraded,
		FailedShards:  res.FailedShards,
		MetaMissing:   res.MetaMissing,
		Truncated:     res.Truncated,
		CutoffApplied: res.CutoffApplied,
		TookUS:        time.Since(start).Microseconds(),
	})
	s.metrics.Latency.Observe(time.Since(start))
}

// localIndex guards endpoints that need a local index, writing the
// appropriate failure when there is none: 501 in remote mode, 503 while
// a recovering server has not installed its index yet.
func (s *Server) localIndex(w http.ResponseWriter) *adindex.Index {
	if !s.localMode {
		http.Error(w, "not supported in remote (distributed) mode", http.StatusNotImplemented)
		return nil
	}
	ix := s.local()
	if ix == nil {
		s.notReady(w)
		return nil
	}
	return ix
}

// notReady answers 503 while durable recovery is still loading the
// index.
func (s *Server) notReady(w http.ResponseWriter) {
	s.metrics.NotReady.Add(1)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Round(time.Second)/time.Second)))
	http.Error(w, "index recovering, retry later", http.StatusServiceUnavailable)
}

func (s *Server) shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Round(time.Second)/time.Second)))
	http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
}

type insertRequest struct {
	ID     uint64       `json:"id"`
	Phrase string       `json:"phrase"`
	Meta   adindex.Meta `json:"meta"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "bad insert body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.ID == 0 || strings.TrimSpace(req.Phrase) == "" {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "insert requires non-zero id and non-empty phrase", http.StatusBadRequest)
		return
	}
	ix.Insert(adindex.NewAd(req.ID, req.Phrase, req.Meta))
	s.metrics.Mutations.Add(1)
	s.writeJSON(w, map[string]any{"ok": true, "epoch": ix.Epoch()})
}

type deleteRequest struct {
	ID     uint64 `json:"id"`
	Phrase string `json:"phrase"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req deleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "bad delete body: "+err.Error(), http.StatusBadRequest)
		return
	}
	found := ix.Delete(req.ID, req.Phrase)
	s.metrics.Mutations.Add(1)
	s.writeJSON(w, map[string]any{"found": found, "epoch": ix.Epoch()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	s.writeJSON(w, ix.Stats())
}

func (s *Server) handleOptimize(w http.ResponseWriter, _ *http.Request) {
	ix := s.localIndex(w)
	if ix == nil {
		return
	}
	report, err := ix.Optimize()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, report)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	snap.Cache.Hits, snap.Cache.Misses, snap.Cache.Invalidations = s.cache.Stats()
	snap.Cache.Entries = s.cache.Len()
	snap.Overload.Shedding = s.limiter.Shedding()
	snap.Overload.ShedOverload = s.limiter.ShedOverload()
	snap.Overload.ShedQueueFull = s.limiter.ShedQueueFull()
	snap.Overload.QuarantineEntries = s.quarantine.Len()
	snap.Overload.QuarantinePromotion = s.quarantine.Quarantined()
	if ix := s.local(); ix != nil {
		snap.Epoch = ix.Epoch()
		if ix.RewriteEnabled() {
			snap.Rewrite = s.metrics.rewriteSnapshot()
		}
		if stats, ok := ix.DurableStats(); ok {
			d := &DurabilitySnapshot{Store: &stats, Recovery: s.recovery.Load()}
			if err := ix.PersistErr(); err != nil {
				d.PersistErr = err.Error()
			}
			snap.Durability = d
		}
		if s.cfg.Adapt || s.cfg.TrackCost {
			snap.Adapt = s.adaptSnapshot(ix)
		}
	} else if s.localMode {
		// Recovering: no index yet, but surface that state explicitly.
		snap.Durability = &DurabilitySnapshot{Recovering: true}
	}
	if s.remote != nil {
		snap.Backends = &BackendsSnapshot{
			Stats:  s.remote.Stats(),
			Health: s.remote.Health(),
		}
	}
	if r := s.rebalancer(); r != nil {
		st := r.Status()
		snap.Elastic = &st
	}
	s.writeJSON(w, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Local mode: a recovering server is live but not ready until durable
	// recovery installs the index.
	if s.localMode && s.local() == nil {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	// Remote mode: sustained backend loss makes this front-end unready so
	// load balancers route around it. Brief blips inside the grace window
	// keep serving (degraded) rather than flapping readiness.
	if s.remote != nil {
		if h := s.remote.Health(); h.DeadFor > s.cfg.BackendLossGrace {
			http.Error(w, fmt.Sprintf("backends degraded for %v", h.DeadFor.Round(time.Millisecond)),
				http.StatusServiceUnavailable)
			return
		}
	}
	// An in-flight rebalance does NOT make the node unready: the live
	// handoff keeps serving from the old owner until the atomic cutover,
	// so routing around it would shed capacity for no benefit. The state
	// is annotated so probes can observe it.
	if r := s.rebalancer(); r != nil {
		if st := r.Status(); st.Migrating {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, "ready (rebalancing: %s %d->%d, phase %s, epoch %d)\n",
				st.Kind, st.From, st.To, st.Phase, st.Epoch)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

// BackendsSnapshot is the remote-mode section of /metrics: aggregate
// fault-handling counters plus per-shard replica health.
type BackendsSnapshot struct {
	Stats  shard.Stats  `json:"stats"`
	Health shard.Health `json:"health"`
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Logger.Printf("encode response: %v", err)
	}
}
