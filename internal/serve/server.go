// Package serve is the BE-SST simulation service: a multi-tenant HTTP
// daemon exposing a versioned campaign API over the same compile/run
// pipeline the CLIs use.
//
//	POST /v1/campaigns             submit (or join/resume) a campaign
//	GET  /v1/campaigns/{id}        status; ?watch=1 streams NDJSON
//	GET  /v1/campaigns/{id}/result the byte-reproducible result document
//	GET  /v1/healthz               liveness + drain state
//	GET  /v1/statz                 counters: queue, tenants, compile cache
//
// Identity is content-addressed: a campaign's ID is the hash of its
// request's canonical JSON (canon.go), which also keys the compile
// cache and the checkpoint journal and — when run.seed is 0 — derives
// the master seed. The same request therefore always names the same
// campaign: concurrent duplicates join the in-flight run, re-posts of
// finished campaigns re-execute through the warm compile cache (and
// resume from their journal when a state directory is configured), and
// every execution of a given request yields byte-identical result
// bodies at any worker count.
//
// Admission is a bounded FIFO queue with per-tenant in-flight caps:
// a full queue answers 429 with Retry-After, and a tenant at its cap
// is skipped over (later tenants proceed) rather than head-of-line
// blocking the service. SIGTERM drains gracefully: running campaigns
// checkpoint through internal/resilience and stop at a trial boundary,
// queued ones are released, and re-posting after restart resumes from
// the journals.
package serve

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"besst/internal/dse"
	"besst/internal/obs"
)

// obsProgress keeps the schema documents free of a direct obs import
// cycle concern while exposing the collector's progress type verbatim.
type obsProgress = obs.Progress

// Campaign states as they appear in CampaignStatus.State, exported for
// typed clients.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// Internal aliases: the handlers predate the exported names.
const (
	stateQueued      = StateQueued
	stateRunning     = StateRunning
	stateDone        = StateDone
	stateFailed      = StateFailed
	stateInterrupted = StateInterrupted
)

// Config parameterizes a Server. The zero value is usable: sensible
// caps, no checkpoint journals.
type Config struct {
	// StateDir, when non-empty, holds per-campaign checkpoint journals
	// (CKPT_serve_<id>.jsonl) enabling drain-and-resume.
	StateDir string
	// Workers is the default per-campaign replication concurrency
	// (<= 0: GOMAXPROCS); requests may pin run.workers themselves.
	Workers int
	// CacheCap bounds the compile cache (<= 0: 8 artifacts).
	CacheCap int
	// MaxQueued bounds the admission queue; beyond it POST answers 429
	// (<= 0: 16).
	MaxQueued int
	// MaxActive bounds concurrently running campaigns (<= 0: 2).
	MaxActive int
	// MaxPerTenant bounds one tenant's concurrently running campaigns
	// (<= 0: 1).
	MaxPerTenant int
	// AuthToken, when non-empty, requires every request (except
	// GET /v1/healthz, left open for liveness probes) to carry
	// "Authorization: Bearer <token>"; mismatches answer 401. Empty
	// keeps the service open.
	AuthToken string
	// CampaignTTL, when positive, garbage-collects settled campaigns
	// (done / failed / interrupted) from the in-memory registry once
	// they have been settled longer than the TTL, so long-lived daemons
	// don't grow without bound. Queued and running campaigns are never
	// evicted; re-posting an evicted request simply re-admits it under
	// the same content-addressed ID.
	CampaignTTL time.Duration
	// Backend, when non-nil, supplies the payload vector of
	// monte_carlo and exhaustive dse_sweep campaigns in place of the
	// local campaign — the hook the distributed coordinator
	// (internal/dist) plugs in behind `besst-serve -workers-addr`.
	// Both vectors fold through the same assemble step, and workers
	// run their shards through the same unit work and
	// resilience.Campaign barrier as the local path, with one attempt
	// per unit: retries belong to the coordinator. Single campaigns and
	// surrogate-guided sweeps always run in-process: one run cannot be
	// sharded, and search rounds are adaptive.
	Backend Backend
	// Memo, when non-nil, is the cross-campaign design-point result
	// cache every sweep campaign evaluates through — the hook the cmd
	// wiring uses to share one journal-backed memo across the server
	// and any co-resident executors. Nil builds a private in-memory
	// memo with dse.DefaultMemoCapacity.
	Memo *dse.Memo
}

// Backend executes a shardable campaign out of process. request is the
// canonical request JSON (the campaign identity), n its unit count;
// cancel is closed when the server drains. The returned payload vector
// must hold one canonical payload per unit, in index order. A nil
// vector with a nil error means execution was cancelled before
// completion (the campaign surfaces as interrupted).
//
// The interface is defined here — not in internal/dist — so serve
// never imports its own backends; dist implements it and cmd wiring
// connects the two.
type Backend interface {
	Run(request []byte, n int, cancel <-chan struct{}, col BackendCollector) ([]json.RawMessage, BackendReport, error)
}

// BackendCollector receives distributed-execution telemetry. It is the
// shard-level subset of *obs.Collector's hooks, typed with builtins
// only so obs satisfies it structurally.
type BackendCollector interface {
	ShardDone(shard, lo, hi int)
	ShardRetry(shard, attempt int)
	ShardDivergence(shard, agree, returned int)
	WorkerDown(worker int)
}

// BackendReport summarizes one distributed execution for the campaign
// record: replica journals that lost their quorum vote are surfaced as
// first-class divergence descriptions on the campaign status, never
// silently discarded.
type BackendReport struct {
	Shards      int
	Replicas    int
	Retries     int
	WorkersLost int
	Divergences []string
}

func (c Config) withDefaults() Config {
	if c.CacheCap <= 0 {
		c.CacheCap = 8
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 16
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	if c.MaxPerTenant <= 0 {
		c.MaxPerTenant = 1
	}
	return c
}

// campaign is one admitted request's lifecycle record. The identity
// fields (id, plan, tenant, collector, done) are immutable after
// admission; everything else is guarded by the server mutex.
type campaign struct {
	id        string
	plan      *plan
	tenant    string
	collector *obs.Collector
	done      chan struct{} // closed when the campaign leaves queued/running

	state    string
	cacheHit bool
	result   []byte
	errMsg   string
	// divergences lists replica disagreements observed while this
	// campaign ran on a distributed backend (majority still won; the
	// outvoted journals are recorded here).
	divergences []string
	// settledAt timestamps the transition out of queued/running; the
	// TTL janitor evicts settled campaigns past Config.CampaignTTL.
	settledAt time.Time
}

// Server is the simulation service.
type Server struct {
	cfg  Config
	arts *artifacts

	mu           sync.Mutex
	campaigns    map[string]*campaign
	queue        []*campaign // pending, admission order
	active       int
	tenantActive map[string]int
	rejected     uint64
	completed    uint64
	evicted      uint64

	wake      chan struct{}
	draining  chan struct{} // closed by Drain; doubles as resilience Cancel
	schedDone chan struct{}
	drainOnce sync.Once
	wg        sync.WaitGroup // running campaign goroutines
	started   time.Time

	// trialPause, when positive, slows every locally run unit — a test
	// hook for backpressure and drain-timing tests.
	trialPause time.Duration
}

// NewServer builds a Server and starts its scheduler.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:          cfg.withDefaults(),
		arts:         newArtifacts(cfg.CacheCap, cfg.Memo),
		campaigns:    make(map[string]*campaign),
		tenantActive: make(map[string]int),
		wake:         make(chan struct{}, 1),
		draining:     make(chan struct{}),
		schedDone:    make(chan struct{}),
		started:      time.Now(),
	}
	go s.schedule()
	return s
}

// schedule is the dispatch loop: every admission or completion kicks
// it to start as many queued campaigns as the caps allow, and — when a
// campaign TTL is configured — a ticker sweeps settled campaigns out
// of the registry. It exits on drain.
func (s *Server) schedule() {
	defer close(s.schedDone)
	var gcTick <-chan time.Time
	if s.cfg.CampaignTTL > 0 {
		period := s.cfg.CampaignTTL / 2
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		gcTick = t.C
	}
	for {
		select {
		case <-s.draining:
			return
		case <-s.wake:
		case <-gcTick:
			s.evictExpired(time.Now())
		}
		s.dispatch()
	}
}

// evictExpired drops settled campaigns whose TTL has lapsed.
func (s *Server) evictExpired(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, c := range s.campaigns {
		if c.settledAt.IsZero() {
			continue // queued or running: never evicted
		}
		if now.Sub(c.settledAt) >= s.cfg.CampaignTTL {
			delete(s.campaigns, id)
			s.evicted++
		}
	}
}

// dispatch starts queued campaigns while the global and per-tenant
// in-flight caps allow. Tenants at their cap are skipped over — FIFO
// within a tenant, no head-of-line blocking across tenants.
func (s *Server) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.active < s.cfg.MaxActive {
		idx := -1
		for i, c := range s.queue {
			if s.tenantActive[c.tenant] < s.cfg.MaxPerTenant {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		c := s.queue[idx]
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
		s.active++
		s.tenantActive[c.tenant]++
		c.state = stateRunning
		s.wg.Add(1)
		go s.runCampaign(c)
	}
}

// runCampaign executes one campaign and records its outcome.
func (s *Server) runCampaign(c *campaign) {
	defer s.wg.Done()
	body, hit, err := s.execute(c)

	s.mu.Lock()
	c.cacheHit = hit
	switch {
	case err != nil:
		c.state = stateFailed
		c.errMsg = err.Error()
	case body == nil:
		c.state = stateInterrupted
		c.errMsg = "campaign drained before completion; re-POST the request to resume"
	default:
		c.state = stateDone
		c.result = body
		s.completed++
	}
	c.settledAt = time.Now()
	s.active--
	s.tenantActive[c.tenant]--
	if s.tenantActive[c.tenant] <= 0 {
		delete(s.tenantActive, c.tenant)
	}
	s.mu.Unlock()
	close(c.done)
	s.kick()
}

// kick nudges the scheduler without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain gracefully stops the server: no new admissions, running
// campaigns checkpoint and stop at the next trial boundary (through
// the shared cancel channel resilience observes), queued campaigns are
// released as interrupted. Safe to call more than once; blocks until
// every campaign goroutine has finished.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
	<-s.schedDone
	s.wg.Wait()
	s.mu.Lock()
	for _, c := range s.queue {
		c.state = stateInterrupted
		c.errMsg = "server drained before the campaign started; re-POST after restart"
		c.settledAt = time.Now()
		close(c.done)
	}
	s.queue = nil
	s.mu.Unlock()
}

// Handler returns the service's HTTP routes, wrapped in bearer-token
// auth when Config.AuthToken is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statz", s.handleStatz)
	return WithAuth(s.cfg.AuthToken, mux)
}

// WithAuth wraps a handler in shared-secret bearer-token auth: every
// request must carry "Authorization: Bearer <token>" or is answered
// 401, except GET /v1/healthz, which stays open so liveness probes
// need no credentials. An empty token disables the check. The same
// wrapper guards besst-serve and the besst-worker shard endpoint, so
// one `-auth-token` flag protects the whole deployment.
func WithAuth(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		// Hash both sides so the comparison is constant-time even
		// across length mismatches.
		sum := sha256.Sum256([]byte(got))
		if !ok || subtle.ConstantTimeCompare(sum[:], want[:]) != 1 {
			writeError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ListenAndServe serves the API on addr until SIGTERM/SIGINT (or a
// programmatic Drain), then drains campaigns and shuts the listener
// down cleanly.
func (s *Server) ListenAndServe(addr string) error {
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	stopped := make(chan struct{})
	go func() {
		select {
		case <-sigc:
		case <-s.draining:
		}
		s.Drain()
		_ = httpSrv.Close() // campaigns already checkpointed; drop keep-alives
		close(stopped)
	}()

	err := httpSrv.ListenAndServe()
	s.Drain() // no-op if the signal path already drained
	<-stopped
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// handleSubmit admits POST /v1/campaigns.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id, canonical, sum, err := HashRequest(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	pl, err := buildPlan(id, sum, canonical)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if existing, ok := s.campaigns[id]; ok {
		if existing.state == stateQueued || existing.state == stateRunning {
			// Identical request already in flight: join it.
			st := s.statusLocked(existing)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		}
		// done/failed/interrupted: fall through and re-admit. Re-posts
		// re-execute through the warm compile cache (and resume from the
		// journal when checkpointing is configured), re-proving byte
		// identity rather than replaying stored bytes.
	}
	if s.isDraining() {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if len(s.queue) >= s.cfg.MaxQueued {
		s.rejected++
		depth := len(s.queue)
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec(depth)))
		writeError(w, http.StatusTooManyRequests, "admission queue is full; retry later")
		return
	}
	c := &campaign{
		id:        id,
		plan:      pl,
		tenant:    pl.req.Tenant,
		collector: obs.NewCollector(),
		done:      make(chan struct{}),
		state:     stateQueued,
	}
	s.campaigns[id] = c
	s.queue = append(s.queue, c)
	st := s.statusLocked(c)
	s.mu.Unlock()
	s.kick()
	writeJSON(w, http.StatusAccepted, st)
}

// retryAfterSec estimates the backoff hint from queue depth.
func retryAfterSec(depth int) int {
	sec := 1 + depth/2
	if sec > 30 {
		sec = 30
	}
	return sec
}

// handleStatus serves GET /v1/campaigns/{id}; ?watch=1 streams status
// as NDJSON until the campaign settles.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	if r.URL.Query().Get("watch") == "" {
		s.mu.Lock()
		st := s.statusLocked(c)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		s.mu.Lock()
		st := s.statusLocked(c)
		s.mu.Unlock()
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State != stateQueued && st.State != stateRunning {
			return
		}
		select {
		case <-c.done:
			// Loop once more to emit the settled status line.
		case <-r.Context().Done():
			return
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// handleResult serves GET /v1/campaigns/{id}/result.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	s.mu.Lock()
	state, body := c.state, c.result
	s.mu.Unlock()
	if state != stateDone {
		writeError(w, http.StatusConflict, fmt.Sprintf("campaign is %s, not done", state))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// Healthz is the GET /v1/healthz liveness document, shared by the
// service, the worker, and the typed client.
type Healthz struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Healthz{Status: "ok", Draining: s.isDraining()}
	if h.Draining {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}

// Statz is the GET /v1/statz counters document.
type Statz struct {
	SchemaVersion int            `json:"schema_version"`
	UptimeSec     float64        `json:"uptime_sec"`
	Draining      bool           `json:"draining"`
	QueueDepth    int            `json:"queue_depth"`
	Active        int            `json:"active"`
	Completed     uint64         `json:"completed"`
	Rejected      uint64         `json:"rejected"`
	Evicted       uint64         `json:"campaigns_evicted"`
	Campaigns     map[string]int `json:"campaigns"` // state -> count
	Tenants       map[string]int `json:"tenants_active,omitempty"`
	Cache         CacheStats     `json:"compile_cache"`
	// PointMemo is the cross-campaign design-point memo's counters:
	// hits are simulations the service never had to repeat.
	PointMemo dse.MemoStats `json:"point_memo"`
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := Statz{
		SchemaVersion: RequestSchemaVersion,
		UptimeSec:     time.Since(s.started).Seconds(),
		Draining:      s.isDraining(),
		QueueDepth:    len(s.queue),
		Active:        s.active,
		Completed:     s.completed,
		Rejected:      s.rejected,
		Evicted:       s.evicted,
		Campaigns:     make(map[string]int),
		Tenants:       make(map[string]int, len(s.tenantActive)),
	}
	for _, c := range s.campaigns {
		st.Campaigns[c.state]++
	}
	for t, n := range s.tenantActive {
		st.Tenants[t] = n
	}
	s.mu.Unlock()
	st.Cache = s.arts.cache.Stats()
	st.PointMemo = s.arts.memo.Stats()
	writeJSON(w, http.StatusOK, st)
}

// lookup resolves a campaign ID under the lock.
func (s *Server) lookup(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// statusLocked renders a campaign's status document. Callers hold mu.
func (s *Server) statusLocked(c *campaign) CampaignStatus {
	st := CampaignStatus{
		SchemaVersion: RequestSchemaVersion,
		ID:            c.id,
		Kind:          c.plan.req.Kind,
		Tenant:        c.tenant,
		State:         c.state,
		Seed:          c.plan.seed,
		Error:         c.errMsg,
		Divergences:   c.divergences,
		Progress:      c.collector.Progress(),
	}
	if c.state == stateDone {
		st.ResultURL = "/v1/campaigns/" + c.id + "/result"
	}
	if c.state == stateDone || c.state == stateFailed {
		hit := c.cacheHit
		st.CacheHit = &hit
	}
	return st
}

// readBody reads a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("serve: reading request body: %w", err)
	}
	return raw, nil
}

// writeJSON renders one JSON response document.
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// writeError renders the uniform error document.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorDoc{Error: msg})
}
