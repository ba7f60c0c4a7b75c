package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/portfolio"
	"repro/internal/smtlib"
	"repro/internal/strcon"
)

// Config sizes the serving layer. The zero value of every field selects
// a sensible default (see withDefaults).
type Config struct {
	// Workers is the number of solver goroutines (default 4).
	Workers int
	// QueueDepth bounds the interactive admission queue; a request
	// arriving with the queue full is rejected with 503 and a
	// queue-depth-derived Retry-After (default 2*Workers).
	QueueDepth int
	// CacheEntries bounds the verdict cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// DefaultTimeout applies when a request names no deadline (default
	// 5s); MaxTimeout clamps what a request may ask for (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxRequestBytes bounds a POST /solve body (default 1 MiB);
	// MaxBatchBytes bounds a POST /batch body (default 16 MiB).
	MaxRequestBytes int64
	MaxBatchBytes   int64
	// Portfolio routes solves through the racing portfolio scheduler
	// instead of the single refinement engine. Backends selects its
	// candidate pool (nil = the whole backend registry); it is ignored
	// when Portfolio is false.
	Portfolio bool
	Backends  []backend.Backend
	// MemBudget is the per-solve resource-governor budget in units
	// (0 = unlimited). A request may lower it with budget_units but
	// never raise it past this cap.
	MemBudget int64
	// TenantBudget is the per-tenant budget pool in governor units
	// (0 = unlimited): every solve carrying the same tenant id (the
	// X-Tenant header) debits one shared engine.Pool, so a tenant's
	// whole workload — batch jobs and interactive solves together — is
	// bounded collectively. A dry pool rejects the tenant's new work
	// with 429 for the life of the process.
	TenantBudget int64
	// TenantRefill turns each tenant pool into a token bucket: the pool
	// earns this many governor units per second, capped at
	// TenantBudget, so a throttled tenant recovers on its own instead
	// of staying dry forever. 0 (the default) keeps pools prepaid.
	// Ignored without TenantBudget.
	TenantRefill int64
	// Peers is this shard's view of its cluster, enabling peer
	// cache-fill: on a verdict-cache miss the shard asks the canonical
	// hash's owner for an already-settled verdict before solving. nil
	// (standalone) disables the lookup.
	Peers *cluster.Peers
	// MaxBatchInstances bounds the instances of one POST /batch
	// (default 512).
	MaxBatchInstances int
	// BatchBacklog bounds a tenant's queued batch instances
	// (default 2048); a batch that would exceed it is rejected whole.
	BatchBacklog int
	// MaxJobs bounds retained batch jobs (default 256); the oldest
	// completed job is evicted to make room for a new one.
	MaxJobs int
	// Fault is a deterministic fault-injection schedule consulted by
	// every solve's engine context and once per job at the worker
	// boundary. Chaos tests and the ci smoke install one; nil (the
	// production value) injects nothing.
	Fault *fault.Schedule
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 16 << 20
	}
	if c.MaxBatchInstances <= 0 {
		c.MaxBatchInstances = 512
	}
	if c.BatchBacklog <= 0 {
		c.BatchBacklog = 2048
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	return c
}

// Server is a concurrent solving service. Create with New, expose via
// net/http (it implements http.Handler), stop with Shutdown.
type Server struct {
	cfg   Config
	cache *lruCache
	mux   *http.ServeMux

	// portfolio is the shared racing scheduler (nil unless
	// Config.Portfolio): its win/loss history accumulates across
	// requests, so the server's scheduling improves as it serves.
	portfolio *portfolio.Solver

	// sched is the two-class, tenant-fair priority queue in front of
	// the worker pool; flights coalesces concurrent identical
	// canonical problems onto one solve; store holds async batch jobs.
	sched   *scheduler
	flights *flightTable
	store   *jobStore

	// tenants maps tenant ids to their shared budget pools (only
	// populated under Config.TenantBudget); order preserves first-seen
	// order for deterministic /stats rendering.
	tenants struct {
		sync.Mutex
		pools map[string]*engine.Pool
		order []string
	}

	draining atomic.Bool
	workers  sync.WaitGroup

	stats *engine.Stats // merged engine statistics across all solves
	ctr   counters

	// Queue-wait accounting per QoS class: the proof obligation of the
	// priority queue is that interactive waits stay bounded under a
	// batch flood, so the server measures them itself.
	waitInteractive waitStats
	waitBatch       waitStats

	// faults keeps the most recent contained-panic diagnostics for
	// /stats, so a fault_id from an error response can be looked up.
	faults struct {
		sync.Mutex
		recent []*fault.Diagnostic
	}

	start time.Time
}

// faultLogCap bounds the recent-diagnostics ring in /stats.
const faultLogCap = 16

// tenantHeader names the request header carrying the tenant id; absent
// or empty means the "default" tenant.
const tenantHeader = "X-Tenant"

// maxCoalesceAttempts bounds how many consecutive unsettled flights a
// request will wait on before solving on its own: coalescing is an
// optimization, never a livelock.
const maxCoalesceAttempts = 3

// counters are the serving-layer metrics (cache counters live on the
// cache itself).
type counters struct {
	requests       atomic.Int64 // jobs accepted for processing (solve + batch instances)
	parseErrors    atomic.Int64
	rejectedQueue  atomic.Int64 // 503: queue or backlog full
	rejectedDrain  atomic.Int64 // 503: shutting down
	rejectedTenant atomic.Int64 // 429: tenant budget pool dry
	solvedSat      atomic.Int64
	solvedUnsat    atomic.Int64
	solvedUnknown  atomic.Int64
	timeouts       atomic.Int64
	faultsContain  atomic.Int64 // panics contained at any boundary
	cacheServed    atomic.Int64 // responses answered from cache
	revalFailures  atomic.Int64 // poisoned cache entries evicted after a failed revalidation
	uncacheable    atomic.Int64 // problems with no canonical form
	clientsGone    atomic.Int64 // client disconnected while queued/solving
	activeRequests atomic.Int64

	coalesced        atomic.Int64 // waiters served by another request's solve
	coalesceFallback atomic.Int64 // waiters whose flight resolved unsettled
	batchJobs        atomic.Int64
	batchInstances   atomic.Int64
	batchDrained     atomic.Int64 // instances failed cleanly by a drain

	peerFills  atomic.Int64 // misses answered by the owner shard's cache
	peerMisses atomic.Int64 // owner asked, had nothing settled
	peerErrors atomic.Int64 // owner unreachable or its entry failed revalidation
	peerServed atomic.Int64 // cache entries this shard handed to peers
}

// waitStats accumulates queue-wait observations for one QoS class.
type waitStats struct {
	count atomic.Int64
	sumNS atomic.Int64
	maxNS atomic.Int64
}

func (ws *waitStats) note(d time.Duration) {
	ws.count.Add(1)
	ws.sumNS.Add(int64(d))
	for {
		cur := ws.maxNS.Load()
		if int64(d) <= cur || ws.maxNS.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

func (ws *waitStats) snapshot() queueWaitStats {
	n := ws.count.Load()
	out := queueWaitStats{Count: n, MaxMS: float64(ws.maxNS.Load()) / 1e6}
	if n > 0 {
		out.MeanMS = float64(ws.sumNS.Load()) / float64(n) / 1e6
	}
	return out
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newLRUCache(cfg.CacheEntries),
		sched:   newScheduler(cfg.QueueDepth, cfg.BatchBacklog),
		flights: newFlightTable(),
		store:   newJobStore(cfg.MaxJobs),
		stats:   engine.NewStats(),
		start:   time.Now(),
	}
	s.tenants.pools = make(map[string]*engine.Pool)
	if cfg.Portfolio {
		s.portfolio = portfolio.New(portfolio.Config{Backends: cfg.Backends})
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /cache/{hash}", s.handleCacheEntry)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker() //lint:nocontain — runJob contains panics per job, so the loop itself cannot panic
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: no new work is accepted, queued and
// in-flight interactive solves finish (their handlers write
// responses), queued batch instances are failed cleanly (settled with
// reason "draining" — job state is never lost, only degraded), and
// Shutdown returns when the workers exit or ctx expires. Call after
// http.Server.Shutdown so no handler is still trying to enqueue.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// close is idempotent (nil on repeat calls), so orphaned batch
	// work is failed exactly once.
	for _, j := range s.sched.close() {
		s.ctr.batchDrained.Add(1)
		s.finish(j, core.Result{Status: core.StatusUnknown, Reason: "draining"}, nil, 0)
	}
	done := make(chan struct{})
	go func() { //lint:nocontain — waits on the pool, runs no solver code
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown wait: %w", ctx.Err())
	}
}

// tenantOf extracts the request's tenant id.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	return "default"
}

// tenantPool returns the tenant's shared budget pool, creating it on
// first sight (nil when the server runs without -tenantbudget).
func (s *Server) tenantPool(tenant string) *engine.Pool {
	if s.cfg.TenantBudget <= 0 {
		return nil
	}
	s.tenants.Lock()
	defer s.tenants.Unlock()
	p, ok := s.tenants.pools[tenant]
	if !ok {
		p = engine.NewRefillingPool("tenant "+tenant, s.cfg.TenantBudget, s.cfg.TenantRefill)
		s.tenants.pools[tenant] = p
		s.tenants.order = append(s.tenants.order, tenant)
	}
	return p
}

// retryAfterSecs maps a backlog to the Retry-After hint on a 503:
// roughly the backlog's drain time at one solve-second per worker,
// clamped to [1, 30], so bulk clients back off proportionally to the
// congestion they observe instead of hammering a fixed interval.
func retryAfterSecs(queued, workers int) int {
	if workers < 1 {
		workers = 1
	}
	secs := 1 + queued/workers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// solveRequest is the POST /solve body.
type solveRequest struct {
	// SMTLIB is the problem source.
	SMTLIB string `json:"smtlib"`
	// TimeoutMS is the per-request deadline (0 = server default,
	// clamped to the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the verdict cache (and dedup-in-flight) for
	// this request.
	NoCache bool `json:"no_cache,omitempty"`
	// BudgetUnits caps the solve's resource-governor budget. It can
	// tighten the server's MemBudget but never exceed it; 0 means
	// "use the server default".
	BudgetUnits int64 `json:"budget_units,omitempty"`
}

// solveResponse is the POST /solve reply. Witness reports a SAT model
// in canonical coordinates (strings by canonical index; integers as
// decimal strings); Model reports it by declared variable name.
type solveResponse struct {
	Status    string       `json:"status"`
	Model     *modelJSON   `json:"model,omitempty"`
	Witness   *witnessJSON `json:"witness,omitempty"`
	Canonical string       `json:"canonical_hash,omitempty"`
	// Backend names the engine that produced the verdict (the race
	// winner under -portfolio; on cache hits, the engine that settled
	// the cached entry). Empty for a direct core solve.
	Backend string `json:"backend,omitempty"`
	Cached  bool   `json:"cached"`
	// PeerFilled marks a cached verdict obtained from the canonical
	// hash's owner shard (peer cache-fill) rather than solved here.
	PeerFilled bool `json:"peer_filled,omitempty"`
	// Coalesced marks a verdict received from another request's solve
	// of the same canonical problem (dedup-in-flight).
	Coalesced bool    `json:"coalesced,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	TimedOut  bool    `json:"timed_out,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// QueuedMS is the time the solve spent in the admission queue.
	QueuedMS float64 `json:"queued_ms,omitempty"`
	Error    string  `json:"error,omitempty"`
	// Reason explains an unknown verdict ("budget: <site>", "deadline",
	// "panic: <value>", ...). FaultID names the contained-panic
	// diagnostic retrievable from /stats when the solve panicked.
	Reason  string `json:"reason,omitempty"`
	FaultID string `json:"fault_id,omitempty"`
}

type modelJSON struct {
	Strings map[string]string `json:"strings,omitempty"`
	Ints    map[string]string `json:"ints,omitempty"`
}

type witnessJSON struct {
	Str []string `json:"str"`
	Int []string `json:"int"`
}

func witnessToJSON(w *smtlib.Witness) *witnessJSON {
	if w == nil {
		return nil
	}
	out := &witnessJSON{Str: append([]string{}, w.Str...), Int: make([]string, len(w.Int))}
	for i, v := range w.Int {
		out.Int[i] = v.String()
	}
	return out
}

// job is one admitted solve, handed to a worker by the scheduler.
// Interactive jobs carry their engine context (created at admission so
// queue time counts against the deadline) and a buffered done channel
// (a worker never blocks on a handler that stopped listening). Batch
// jobs carry the deadline parameters instead — their context is
// created at dequeue, so a deep backlog does not expire instances that
// were merely waiting — and a deliver callback into the job store.
type job struct {
	class   schedClass
	tenant  string
	script  *smtlib.Script
	canon   *smtlib.Canon
	noCache bool

	ec      *engine.Ctx   // interactive only
	timeout time.Duration // batch only
	budget  int64         // batch only
	pool    *engine.Pool  // batch only (interactive pools ride on ec)

	fl       *flight // the flight this job leads (nil when not coalescable)
	admitted time.Time

	done    chan jobOutcome  // interactive
	deliver func(jobOutcome) // batch
}

// jobOutcome is what a worker (or the drain path) produced for a job.
type jobOutcome struct {
	res    core.Result
	ec     *engine.Ctx // nil when drained before dequeue
	queued time.Duration
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The connection may be gone; there is nowhere to report to.
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, a ...any) {
	s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, a...)})
}

// rejectDraining answers the drain 503. Retry-After stays constant
// here: the queue is irrelevant, the process is about to exit.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.ctr.rejectedDrain.Add(1)
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
}

// rejectTenant answers the 429 for a tenant whose budget pool is dry.
// Retry-After reuses the queue-full mapping on the tenant's own queued
// batch backlog: a tenant with deep queued work backs off longer,
// since its pool has that much more demand to absorb before new work
// stands a chance.
func (s *Server) rejectTenant(w http.ResponseWriter, tenant string) {
	s.ctr.rejectedTenant.Add(1)
	w.Header().Set("Retry-After",
		strconv.Itoa(retryAfterSecs(s.sched.tenantBacklog(tenant), s.cfg.Workers)))
	s.writeError(w, http.StatusTooManyRequests, "tenant %q budget exhausted", tenant)
}

// clampTimeout applies the server's default and maximum to a
// client-requested deadline.
func (s *Server) clampTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// clampBudget applies the server's MemBudget cap to a client-requested
// governor budget.
func (s *Server) clampBudget(units int64) int64 {
	budget := s.cfg.MemBudget
	if units > 0 && (budget <= 0 || units < budget) {
		budget = units
	}
	return budget
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.ctr.activeRequests.Add(1)
	defer s.ctr.activeRequests.Add(-1)
	start := time.Now()

	// A draining server takes no new solve work — not even cache hits —
	// so clients fail over promptly and deterministically.
	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxRequestBytes)
			return
		}
		s.writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req solveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	script, err := smtlib.Parse(req.SMTLIB)
	if err != nil {
		s.ctr.parseErrors.Add(1)
		s.writeError(w, http.StatusBadRequest, "parsing problem: %v", err)
		return
	}

	canon, err := smtlib.Canonicalize(script.Problem)
	if err != nil {
		// Not an input error: the problem is solvable, just not
		// cacheable (e.g. past the canonical nesting budget).
		canon = nil
		s.ctr.uncacheable.Add(1)
	}

	// Cache fast path; see cacheLookup for the revalidation rule. On a
	// local miss, peer cache-fill asks the canonical hash's owner shard
	// before spending any solver time.
	if canon != nil && !req.NoCache {
		if resp, ok := s.cacheLookup(script, canon, start); ok {
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
		if resp, ok := s.peerFill(r, script, canon, start); ok {
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	tenant := tenantOf(r)
	pool := s.tenantPool(tenant)
	if pool.Dry() {
		s.rejectTenant(w, tenant)
		return
	}

	// The deadline starts here, so time spent queued — or waiting on a
	// coalesced flight — counts against the request's budget; a client
	// disconnect cancels the engine context through r.Context().
	ec, stop := engine.FromContext(r.Context(), s.clampTimeout(req.TimeoutMS))
	defer stop()
	if budget := s.clampBudget(req.BudgetUnits); budget > 0 {
		ec.SetBudget(budget)
	}
	ec.SetBudgetPool(pool)
	if s.cfg.Fault != nil {
		ec.SetSchedule(s.cfg.Fault)
	}

	// Dispatch loop: cache, then coalesce onto an identical in-flight
	// solve, then the interactive queue. A flight that resolves
	// unsettled (the leader timed out, was cancelled, or panicked)
	// proves nothing about the problem, so the waiter loops back and
	// tries again — re-checking the cache first, becoming the next
	// leader if the hash is now unclaimed, and solving uncoalesced
	// after maxCoalesceAttempts.
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if s.draining.Load() {
				s.rejectDraining(w)
				return
			}
			if canon != nil && !req.NoCache {
				if resp, ok := s.cacheLookup(script, canon, start); ok {
					s.writeJSON(w, http.StatusOK, resp)
					return
				}
			}
		}
		var fl *flight
		leader := true
		if canon != nil && !req.NoCache && attempt < maxCoalesceAttempts {
			fl, leader = s.flights.join(canon.Hash)
		}
		if !leader {
			var expired <-chan time.Time
			if t, ok := ec.Deadline(); ok {
				timer := time.NewTimer(time.Until(t))
				defer timer.Stop()
				expired = timer.C
			}
			select {
			case <-fl.done:
			case <-expired:
				// The waiter's own deadline passed while the leader
				// solved; answer exactly like a queued timeout.
				s.ctr.timeouts.Add(1)
				s.writeJSON(w, http.StatusOK, solveResponse{
					Status: core.StatusUnknown.String(), Reason: "deadline",
					TimedOut: true, Canonical: canon.Hash, ElapsedMS: msSince(start),
				})
				return
			case <-r.Context().Done():
				s.ctr.clientsGone.Add(1)
				return
			}
			if fl.settled {
				if resp, ok := s.renderVerdict(script, canon, fl.v, false, true, start); ok {
					s.ctr.coalesced.Add(1)
					s.writeJSON(w, http.StatusOK, resp)
					return
				}
			}
			s.ctr.coalesceFallback.Add(1)
			continue
		}

		j := &job{
			class: classInteractive, tenant: tenant,
			script: script, canon: canon, noCache: req.NoCache,
			ec: ec, fl: fl, admitted: time.Now(),
			done: make(chan jobOutcome, 1),
		}
		if err := s.sched.push(j); err != nil {
			if fl != nil {
				s.flights.resolve(fl, false, verdict{}, "not admitted")
			}
			if errors.Is(err, errSchedDraining) {
				s.rejectDraining(w)
				return
			}
			s.ctr.rejectedQueue.Add(1)
			depth, _ := s.sched.depths()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(depth, s.cfg.Workers)))
			s.writeError(w, http.StatusServiceUnavailable,
				"admission queue full (%d queued)", depth)
			return
		}
		s.ctr.requests.Add(1)

		select {
		case out := <-j.done:
			resp := s.outcomeResponse(script, canon, out, start)
			if out.res.Fault != nil {
				// A contained panic is a server-side defect, not a
				// property of the problem: report 500 with the
				// diagnostic id so the full trace can be pulled from
				// /stats.
				s.writeJSON(w, http.StatusInternalServerError, resp)
				return
			}
			s.writeJSON(w, http.StatusOK, resp)
			return
		case <-r.Context().Done():
			// Client gone: FromContext's watcher cancels ec, the worker
			// finishes promptly, and the buffered done channel absorbs
			// the result. Nothing to write to.
			s.ctr.clientsGone.Add(1)
			return
		}
	}
}

// cacheLookup serves a request from the verdict cache when possible.
// A cached SAT witness is never trusted blindly: it is transported
// onto THIS request's parse and re-checked by the concrete evaluator.
// A poisoned entry is evicted exactly once across any number of
// concurrent readers — removeIf is a no-op for every reader after the
// first, and for an entry a fresh solve has already replaced — and
// every reader falls through to the dispatch path, where
// dedup-in-flight collapses them onto one real solve.
func (s *Server) cacheLookup(script *smtlib.Script, canon *smtlib.Canon, start time.Time) (solveResponse, bool) {
	v, ok := s.cache.get(canon.Hash)
	if !ok {
		return solveResponse{}, false
	}
	resp, ok := s.renderVerdict(script, canon, v, true, false, start)
	if !ok {
		if s.cache.removeIf(canon.Hash, v) {
			s.ctr.revalFailures.Add(1)
		}
		return solveResponse{}, false
	}
	s.ctr.cacheServed.Add(1)
	return resp, true
}

// renderVerdict builds a response from a settled canonical verdict —
// the shared tail of the cache-hit and coalesced-flight paths. For
// SAT, the canonical witness is transported onto the requesting parse
// and re-checked by the concrete evaluator; ok=false means the
// witness did not fit (callers treat it as a miss).
func (s *Server) renderVerdict(script *smtlib.Script, canon *smtlib.Canon, v verdict, cached, coalesced bool, start time.Time) (solveResponse, bool) {
	resp := solveResponse{
		Canonical: canon.Hash,
		Backend:   v.backend,
		Cached:    cached,
		Coalesced: coalesced,
	}
	switch v.status {
	case core.StatusUnsat:
		resp.Status = "unsat"
	case core.StatusSat:
		a := canon.Assignment(v.witness)
		if a == nil || !script.Problem.Eval(a) {
			return solveResponse{}, false
		}
		resp.Status = "sat"
		resp.Model = modelOf(script, a)
		resp.Witness = witnessToJSON(v.witness)
	default:
		return solveResponse{}, false
	}
	resp.ElapsedMS = msSince(start)
	return resp, true
}

// outcomeResponse renders a worker-produced result for the request
// that led the solve.
func (s *Server) outcomeResponse(script *smtlib.Script, canon *smtlib.Canon, out jobOutcome, start time.Time) solveResponse {
	resp := solveResponse{
		Status:    out.res.Status.String(),
		Backend:   out.res.Backend,
		Rounds:    out.res.Rounds,
		TimedOut:  out.ec.TimedOut(),
		ElapsedMS: msSince(start),
		QueuedMS:  float64(out.queued) / float64(time.Millisecond),
		Reason:    out.res.Reason,
	}
	if canon != nil {
		resp.Canonical = canon.Hash
	}
	if out.res.Status == core.StatusSat {
		resp.Model = modelOf(script, out.res.Model)
		if canon != nil {
			resp.Witness = witnessToJSON(canon.WitnessOf(out.res.Model))
		}
	}
	if out.res.Fault != nil {
		resp.FaultID = out.res.Fault.ID
		resp.Error = "solver panic contained (see /stats faults." + out.res.Fault.ID + ")"
	}
	return resp
}

// worker drains the scheduler until Shutdown closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := s.sched.pop(); j != nil; j = s.sched.pop() {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	queued := time.Since(j.admitted)
	if j.class == classInteractive {
		s.waitInteractive.note(queued)
	} else {
		s.waitBatch.note(queued)
	}
	ec := j.ec
	if ec == nil {
		// Batch deadlines start at dequeue: a deep backlog must not
		// expire instances that were merely waiting their turn.
		ec = engine.WithTimeout(j.timeout)
		if j.budget > 0 {
			ec.SetBudget(j.budget)
		}
		ec.SetBudgetPool(j.pool)
		if s.cfg.Fault != nil {
			ec.SetSchedule(s.cfg.Fault)
		}
	}
	var res core.Result
	// The worker boundary: core.SolveCtx contains panics raised inside
	// the solve, so this Contain only ever fires for faults injected at
	// the worker's own schedule site (and is the backstop that keeps the
	// pool alive if the pre-solve path ever panics).
	d := fault.Contain("server.worker", func() {
		if op := s.cfg.Fault.Visit(); op != fault.OpNone {
			ec.ApplyFault(op)
		}
		if ec.Expired() {
			// Deadline or client disconnect consumed the budget while
			// queued; report without touching the solver.
			reason := ec.BudgetReason()
			if reason == "" {
				reason = ec.Cause().String()
			}
			res = core.Result{Status: core.StatusUnknown, Reason: reason}
		} else if s.portfolio != nil {
			res = s.portfolio.Solve(j.script.Problem, backend.Options{}, ec)
		} else {
			res = core.SolveCtx(j.script.Problem, core.Options{}, ec)
		}
	})
	if d != nil {
		res = core.Result{Status: core.StatusUnknown, Reason: "panic: " + d.Value, Fault: d}
	}
	if res.Fault != nil {
		s.ctr.faultsContain.Add(1)
		s.recordFault(res.Fault)
	}
	switch res.Status {
	case core.StatusSat:
		s.ctr.solvedSat.Add(1)
	case core.StatusUnsat:
		s.ctr.solvedUnsat.Add(1)
	default:
		if ec.TimedOut() {
			s.ctr.timeouts.Add(1)
		} else {
			s.ctr.solvedUnknown.Add(1)
		}
	}
	s.stats.Merge(ec.Stats())

	// Cache only settled verdicts of canonicalizable problems. A
	// timed-out or cancelled run says nothing about the problem, and an
	// unknown depends on the round budget.
	if j.canon != nil && !j.noCache && !ec.Expired() {
		switch res.Status {
		case core.StatusSat:
			s.cache.put(j.canon.Hash, verdict{
				status:  core.StatusSat,
				witness: j.canon.WitnessOf(res.Model),
				backend: res.Backend,
			})
		case core.StatusUnsat:
			s.cache.put(j.canon.Hash, verdict{status: core.StatusUnsat, backend: res.Backend})
		}
	}
	s.finish(j, res, ec, queued)
}

// finish resolves the job's flight (waking every coalesced waiter with
// the same verdict) and delivers the outcome to the job's consumer.
// The drain path uses it too, with a synthetic "draining" result and
// no engine context.
func (s *Server) finish(j *job, res core.Result, ec *engine.Ctx, queued time.Duration) {
	if j.fl != nil {
		settled := (res.Status == core.StatusSat || res.Status == core.StatusUnsat) && !ec.Expired()
		if settled {
			v := verdict{status: res.Status, backend: res.Backend}
			if res.Status == core.StatusSat {
				v.witness = j.canon.WitnessOf(res.Model)
			}
			s.flights.resolve(j.fl, true, v, "")
		} else {
			reason := res.Reason
			if reason == "" {
				reason = "unsettled"
			}
			s.flights.resolve(j.fl, false, verdict{}, reason)
		}
	}
	out := jobOutcome{res: res, ec: ec, queued: queued}
	if j.done != nil {
		j.done <- out
	}
	if j.deliver != nil {
		j.deliver(out)
	}
}

// recordFault keeps the newest faultLogCap contained-panic diagnostics
// for /stats.
func (s *Server) recordFault(d *fault.Diagnostic) {
	s.faults.Lock()
	defer s.faults.Unlock()
	s.faults.recent = append(s.faults.recent, d)
	if n := len(s.faults.recent); n > faultLogCap {
		s.faults.recent = s.faults.recent[n-faultLogCap:]
	}
}

// modelOf renders an assignment under the script's declared names.
// Variables the model leaves unassigned default to "" and 0, matching
// the concrete evaluator. Length variables are internal, not reported.
func modelOf(script *smtlib.Script, a *strcon.Assignment) *modelJSON {
	if a == nil {
		return nil
	}
	m := &modelJSON{}
	if len(script.StrVars) > 0 {
		m.Strings = make(map[string]string, len(script.StrVars))
		for name, v := range script.StrVars {
			m.Strings[name] = a.Str[v]
		}
	}
	if len(script.IntVars) > 0 {
		m.Ints = make(map[string]string, len(script.IntVars))
		for name, v := range script.IntVars {
			m.Ints[name] = a.Int.Value(v).String()
		}
	}
	return m
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// statsResponse is the GET /stats body.
type statsResponse struct {
	UptimeMS float64      `json:"uptime_ms"`
	Requests requestStats `json:"requests"`
	Cache    cacheStats   `json:"cache"`
	Queue    queueStats   `json:"queue"`
	Dedup    dedupStats   `json:"dedup"`
	Batch    batchStats   `json:"batch"`
	// Cluster reports the peer cache-fill counters (absent for a
	// standalone server that has also never served a peer).
	Cluster *clusterStats `json:"cluster,omitempty"`
	// Tenants lists the per-tenant budget pools in first-seen order
	// (empty unless the server runs with a tenant budget).
	Tenants []tenantStat `json:"tenants,omitempty"`
	Faults  faultStats   `json:"faults"`
	// Portfolio reports the racing scheduler's cumulative win rates and
	// recent decisions; absent unless the server runs with -portfolio.
	Portfolio *portfolio.Snapshot `json:"portfolio,omitempty"`
	Engine    *engine.Snapshot    `json:"engine"`
}

// faultStats surfaces contained panics: the total and the most recent
// diagnostics (full trimmed stacks), keyed by the fault_id that error
// responses carry.
type faultStats struct {
	Contained int64               `json:"contained"`
	Recent    []*fault.Diagnostic `json:"recent,omitempty"`
}

type requestStats struct {
	Accepted       int64 `json:"accepted"`
	ParseErrors    int64 `json:"parse_errors"`
	RejectedQueue  int64 `json:"rejected_queue_full"`
	RejectedDrain  int64 `json:"rejected_draining"`
	RejectedTenant int64 `json:"rejected_tenant_budget"`
	Sat            int64 `json:"sat"`
	Unsat          int64 `json:"unsat"`
	Unknown        int64 `json:"unknown"`
	Timeouts       int64 `json:"timeouts"`
	CacheServed    int64 `json:"cache_served"`
	RevalFailures  int64 `json:"revalidation_failures"`
	Uncacheable    int64 `json:"uncacheable"`
	ClientsGone    int64 `json:"clients_gone"`
	ActiveRequests int64 `json:"active"`
}

type cacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

type queueStats struct {
	Depth           int            `json:"depth"` // interactive queue
	BatchDepth      int            `json:"batch_depth"`
	Capacity        int            `json:"capacity"`
	Workers         int            `json:"workers"`
	InteractiveWait queueWaitStats `json:"interactive_wait"`
	BatchWait       queueWaitStats `json:"batch_wait"`
}

// queueWaitStats summarizes admission-to-dequeue waits for one QoS
// class — the observable the priority queue exists to bound.
type queueWaitStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// dedupStats reports dedup-in-flight outcomes: Coalesced counts
// requests served by another request's solve of the same canonical
// problem, Fallbacks counts waiters whose flight resolved unsettled
// and who re-dispatched on their own.
type dedupStats struct {
	Coalesced int64 `json:"coalesced"`
	Fallbacks int64 `json:"fallbacks"`
}

type batchStats struct {
	Jobs      int64 `json:"jobs"`
	Instances int64 `json:"instances"`
	Drained   int64 `json:"drained"`
	Stored    int   `json:"stored"`
}

// clusterStats is the shard-local view of the distributed verdict
// cache: both directions of peer cache-fill.
type clusterStats struct {
	Self       string `json:"self,omitempty"` // this shard's cluster address
	PeerFills  int64  `json:"peer_fills"`
	PeerMisses int64  `json:"peer_misses"`
	PeerErrors int64  `json:"peer_errors"`
	PeerServed int64  `json:"peer_served"`
}

type tenantStat struct {
	Name            string `json:"name"`
	BudgetRemaining int64  `json:"budget_remaining"`
	QueuedBatch     int    `json:"queued_batch"`
}

func (s *Server) snapshotStats() statsResponse {
	hits, misses, evictions := s.cache.counters()
	depth, batchDepth := s.sched.depths()
	return statsResponse{
		UptimeMS: msSince(s.start),
		Requests: requestStats{
			Accepted:       s.ctr.requests.Load(),
			ParseErrors:    s.ctr.parseErrors.Load(),
			RejectedQueue:  s.ctr.rejectedQueue.Load(),
			RejectedDrain:  s.ctr.rejectedDrain.Load(),
			RejectedTenant: s.ctr.rejectedTenant.Load(),
			Sat:            s.ctr.solvedSat.Load(),
			Unsat:          s.ctr.solvedUnsat.Load(),
			Unknown:        s.ctr.solvedUnknown.Load(),
			Timeouts:       s.ctr.timeouts.Load(),
			CacheServed:    s.ctr.cacheServed.Load(),
			RevalFailures:  s.ctr.revalFailures.Load(),
			Uncacheable:    s.ctr.uncacheable.Load(),
			ClientsGone:    s.ctr.clientsGone.Load(),
			ActiveRequests: s.ctr.activeRequests.Load(),
		},
		Cache: cacheStats{
			Entries:   s.cache.len(),
			Capacity:  s.cfg.CacheEntries,
			Hits:      hits,
			Misses:    misses,
			Evictions: evictions,
		},
		Queue: queueStats{
			Depth:           depth,
			BatchDepth:      batchDepth,
			Capacity:        s.cfg.QueueDepth,
			Workers:         s.cfg.Workers,
			InteractiveWait: s.waitInteractive.snapshot(),
			BatchWait:       s.waitBatch.snapshot(),
		},
		Dedup: dedupStats{
			Coalesced: s.ctr.coalesced.Load(),
			Fallbacks: s.ctr.coalesceFallback.Load(),
		},
		Batch: batchStats{
			Jobs:      s.ctr.batchJobs.Load(),
			Instances: s.ctr.batchInstances.Load(),
			Drained:   s.ctr.batchDrained.Load(),
			Stored:    s.store.len(),
		},
		Cluster:   s.snapshotCluster(),
		Tenants:   s.snapshotTenants(),
		Faults:    s.snapshotFaults(),
		Portfolio: s.snapshotPortfolio(),
		Engine:    s.stats.Snapshot(),
	}
}

func (s *Server) snapshotTenants() []tenantStat {
	s.tenants.Lock()
	order := append([]string(nil), s.tenants.order...)
	pools := make([]*engine.Pool, len(order))
	for i, name := range order {
		pools[i] = s.tenants.pools[name]
	}
	s.tenants.Unlock()
	out := make([]tenantStat, len(order))
	for i, name := range order {
		out[i] = tenantStat{
			Name:            name,
			BudgetRemaining: pools[i].Remaining(),
			QueuedBatch:     s.sched.tenantBacklog(name),
		}
	}
	return out
}

func (s *Server) snapshotCluster() *clusterStats {
	cs := clusterStats{
		Self:       s.cfg.Peers.Self(),
		PeerFills:  s.ctr.peerFills.Load(),
		PeerMisses: s.ctr.peerMisses.Load(),
		PeerErrors: s.ctr.peerErrors.Load(),
		PeerServed: s.ctr.peerServed.Load(),
	}
	if s.cfg.Peers == nil && cs.PeerServed == 0 {
		return nil
	}
	return &cs
}

func (s *Server) snapshotPortfolio() *portfolio.Snapshot {
	if s.portfolio == nil {
		return nil
	}
	snap := s.portfolio.Snapshot()
	return &snap
}

func (s *Server) snapshotFaults() faultStats {
	s.faults.Lock()
	recent := append([]*fault.Diagnostic(nil), s.faults.recent...)
	s.faults.Unlock()
	return faultStats{Contained: s.ctr.faultsContain.Load(), Recent: recent}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.snapshotStats())
}

// handleMetrics is the flat machine-readable view of /stats: every
// numeric leaf of the same snapshot under its JSON path joined with "_"
// (requests.sat becomes requests_sat). Strings and arrays are left out;
// encoding/json sorts the keys.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	raw, err := json.Marshal(s.snapshotStats())
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode stats: %v", err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		s.writeError(w, http.StatusInternalServerError, "decode stats: %v", err)
		return
	}
	m := map[string]json.Number{}
	flattenNumbers(tree, "", m)
	s.writeJSON(w, http.StatusOK, m)
}

// flattenNumbers adds every number in a decoded JSON value to out under
// its object path joined with "_".
func flattenNumbers(v any, path string, out map[string]json.Number) {
	switch t := v.(type) {
	case json.Number:
		out[path] = t
	case map[string]any:
		for k, c := range t {
			if path != "" {
				k = path + "_" + k
			}
			flattenNumbers(c, k, out)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]string{"status": status})
}
