package dist

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"besst/internal/par"
	"besst/internal/serve"
	"besst/internal/serveclient"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://127.0.0.1:9001").
	// At least one is required.
	Workers []string
	// Shards is the number of index-range shards to split a campaign
	// into (<= 0: one per worker).
	Shards int
	// Replicas is the functional-replication degree: every shard runs
	// on this many workers and a strict majority of returned journals
	// must agree byte-for-byte (<= 0: 1, i.e. no replication).
	Replicas int
	// AuthToken, when non-empty, authenticates every worker call.
	AuthToken string
	// ShardTimeout bounds one shard-replica execution attempt
	// (<= 0: 2m). A straggler past the deadline counts as worker loss:
	// the attempt is abandoned and the shard reassigned.
	ShardTimeout time.Duration
	// Heartbeat is the worker health-probe period (<= 0: 1s; probing
	// also revives workers previously marked down).
	Heartbeat time.Duration
	// MaxAttempts bounds dispatch attempts per shard replica, first
	// attempt included (<= 0: 4).
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt, doubling per
	// attempt up to MaxBackoff (defaults 50ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// Coordinator runs campaigns across a fixed fleet of worker processes,
// tolerating worker loss through retry, reassignment, and functional
// replication. Safe for concurrent use; each Run is independent.
type Coordinator struct {
	cfg     Config
	clients []*serveclient.Client

	mu       sync.Mutex
	down     []bool // guarded by mu
	everDown []bool // guarded by mu
}

// NewCoordinator validates the config and builds per-worker clients.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: no workers configured")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = len(cfg.Workers)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Minute
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	c := &Coordinator{
		cfg:      cfg,
		clients:  make([]*serveclient.Client, len(cfg.Workers)),
		down:     make([]bool, len(cfg.Workers)),
		everDown: make([]bool, len(cfg.Workers)),
	}
	for i, w := range cfg.Workers {
		c.clients[i] = serveclient.New(w, cfg.AuthToken)
	}
	return c, nil
}

// Workers returns the size of the worker fleet.
func (c *Coordinator) Workers() int { return len(c.clients) }

// nopCollector drops every event so the hot path never nil-checks.
type nopCollector struct{}

func (nopCollector) ShardDone(int, int, int)       {}
func (nopCollector) ShardRetry(int, int)           {}
func (nopCollector) ShardDivergence(int, int, int) {}
func (nopCollector) WorkerDown(int)                {}

// runAccounting accumulates the report across concurrent shards.
type runAccounting struct {
	mu          sync.Mutex
	retries     int      // guarded by mu
	divergences []string // guarded by mu
}

// Run executes the campaign in raw request JSON across the worker
// fleet and returns the complete per-unit payload vector (index
// order); it makes *Coordinator a serve.Backend. n, when positive,
// cross-checks the caller's unit count against the plan. A closed
// cancel channel aborts the run and returns (nil, report, nil) — the
// drained convention of serve.Backend. A nil col drops every event.
// Divergence-without-majority, exhaustion of every replica's attempts,
// and bad requests return errors.
func (c *Coordinator) Run(request []byte, n int, cancel <-chan struct{}, col serve.BackendCollector) ([]json.RawMessage, serve.BackendReport, error) {
	rep := serve.BackendReport{Replicas: c.cfg.Replicas}
	p, err := serve.ParsePlan(request)
	if err != nil {
		return nil, rep, err
	}
	units := p.Units()
	if n > 0 && n != units {
		return nil, rep, fmt.Errorf("dist: caller expects %d units but plan %s has %d", n, p.ID(), units)
	}
	ranges := par.Split(units, c.cfg.Shards)
	rep.Shards = len(ranges)
	if col == nil {
		col = nopCollector{}
	}

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go func() { // abort on caller cancellation; exits via stop()
		select {
		case <-cancel:
			stop()
		case <-ctx.Done():
		}
	}()
	go c.heartbeatLoop(ctx, col)

	acct := &runAccounting{}
	payloads := make([]json.RawMessage, units)
	shardErrs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for s, r := range ranges {
		wg.Add(1)
		go func(s int, r par.Range) {
			defer wg.Done()
			out, err := c.runShard(ctx, s, r, p, col, acct)
			if err != nil {
				shardErrs[s] = err
				stop() // fail fast: abandon the other shards
				return
			}
			copy(payloads[r.Lo:r.Hi], out)
			col.ShardDone(s, r.Lo, r.Hi)
		}(s, r)
	}
	wg.Wait()

	acct.mu.Lock()
	rep.Retries = acct.retries
	rep.Divergences = acct.divergences
	acct.mu.Unlock()
	c.mu.Lock()
	for _, d := range c.everDown {
		if d {
			rep.WorkersLost++
		}
	}
	c.mu.Unlock()

	// Prefer a root-cause error (divergence, exhausted retries) over
	// the context errors of shards abandoned by the fail-fast stop().
	var abandoned error
	for _, err := range shardErrs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			abandoned = err
			continue
		}
		return nil, rep, err
	}
	if abandoned != nil {
		select {
		case <-cancel:
			return nil, rep, nil // drained mid-shard
		default:
		}
		return nil, rep, abandoned
	}
	select {
	case <-cancel:
		return nil, rep, nil // drained
	default:
	}
	return payloads, rep, nil
}

// runShard executes one shard on Replicas workers and resolves the
// returned journals by strict majority.
func (c *Coordinator) runShard(ctx context.Context, s int, r par.Range, p *serve.Plan, col serve.BackendCollector, acct *runAccounting) ([]json.RawMessage, error) {
	type replicaOut struct {
		payloads []json.RawMessage
		key      string
	}
	var (
		mu       sync.Mutex
		returned []replicaOut // guarded by mu
		lastErr  error        // guarded by mu
	)
	var wg sync.WaitGroup
	for ri := 0; ri < c.cfg.Replicas; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			out, err := c.runReplica(ctx, s, ri, r, p, col, acct)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				lastErr = err
				return
			}
			returned = append(returned, replicaOut{out, journalKey(out)})
		}(ri)
	}
	wg.Wait()

	if len(returned) == 0 {
		if ctx.Err() != nil && lastErr == nil {
			return nil, fmt.Errorf("dist: shard %d [%d,%d) abandoned: %w", s, r.Lo, r.Hi, ctx.Err())
		}
		return nil, fmt.Errorf("dist: shard %d [%d,%d) failed on every replica: %w", s, r.Lo, r.Hi, lastErr)
	}

	// Group byte-identical journals; strict majority of *returned*
	// replicas wins. Workers that never answered don't vote.
	counts := map[string]int{}
	var order []string
	for _, ro := range returned {
		if counts[ro.key] == 0 {
			order = append(order, ro.key)
		}
		counts[ro.key]++
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	bestKey := order[0]
	best := counts[bestKey]
	if best*2 <= len(returned) {
		return nil, &DivergenceError{Shard: s, Lo: r.Lo, Hi: r.Hi, Returned: len(returned), Variants: order}
	}
	if len(order) > 1 {
		col.ShardDivergence(s, best, len(returned))
		note := fmt.Sprintf("shard %d [%d,%d): %d/%d replicas agreed on journal %s; rejected minority journals: %v",
			s, r.Lo, r.Hi, best, len(returned), bestKey, order[1:])
		acct.mu.Lock()
		acct.divergences = append(acct.divergences, note)
		acct.mu.Unlock()
	}
	for _, ro := range returned {
		if ro.key == bestKey {
			return ro.payloads, nil
		}
	}
	panic("unreachable: bestKey came from returned")
}

// runReplica drives one shard replica to completion: pick a live
// worker, call it with the shard deadline, and on worker loss back off
// and reassign to a survivor.
func (c *Coordinator) runReplica(ctx context.Context, s, ri int, r par.Range, p *serve.Plan, col serve.BackendCollector, acct *runAccounting) ([]json.RawMessage, error) {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			col.ShardRetry(s, attempt)
			acct.mu.Lock()
			acct.retries++
			acct.mu.Unlock()
			if err := c.backoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		w := c.pickWorker(s, ri, attempt)
		out, err := c.callWorker(ctx, w, s, r, p)
		if err == nil {
			return out, nil
		}
		lastErr = fmt.Errorf("worker %d (%s): %w", w, c.cfg.Workers[w], err)
		if isFatal(err) || ctx.Err() != nil {
			return nil, lastErr
		}
		c.markDown(w, col)
	}
	return nil, lastErr
}

// callWorker posts one shard to worker w and validates the answer.
func (c *Coordinator) callWorker(ctx context.Context, w, s int, r par.Range, p *serve.Plan) ([]json.RawMessage, error) {
	body, err := json.Marshal(ShardRequest{
		SchemaVersion: ShardSchemaVersion,
		CampaignID:    p.ID(),
		Request:       json.RawMessage(p.Canonical()),
		Lo:            r.Lo,
		Hi:            r.Hi,
	})
	if err != nil {
		return nil, err
	}
	callCtx, done := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer done()
	status, out, err := c.clients[w].Do(callCtx, http.MethodPost, "/v1/shards", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		var doc struct {
			Error string `json:"error"`
		}
		msg := string(out)
		if jsonErr := json.Unmarshal(out, &doc); jsonErr == nil && doc.Error != "" {
			msg = doc.Error
		}
		return nil, &serveclient.APIError{Status: status, Msg: msg}
	}
	var res ShardResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("decode shard result: %w", err)
	}
	if res.CampaignID != p.ID() || res.Lo != r.Lo || res.Hi != r.Hi || len(res.Payloads) != r.Len() {
		return nil, fmt.Errorf("shard result mismatch: campaign %s [%d,%d) with %d payloads, want %s [%d,%d) with %d",
			res.CampaignID, res.Lo, res.Hi, len(res.Payloads), p.ID(), r.Lo, r.Hi, r.Len())
	}
	for i, pay := range res.Payloads {
		if len(pay) == 0 {
			return nil, fmt.Errorf("shard result: empty payload for unit %d", r.Lo+i)
		}
		if string(pay) == "null" {
			// The worker's explicit quarantine record for a panicked
			// unit. Normalize the wire form back to nil so replica
			// comparison and assembly see the in-process representation.
			res.Payloads[i] = nil
		}
	}
	return res.Payloads, nil
}

// isFatal reports whether the error marks the request itself broken —
// a 4xx the worker will answer identically forever — as opposed to
// worker loss, which retry on a survivor can fix.
func isFatal(err error) bool {
	var ae *serveclient.APIError
	if errors.As(err, &ae) {
		return ae.Status >= 400 && ae.Status < 500 &&
			ae.Status != http.StatusRequestTimeout && ae.Status != http.StatusTooManyRequests
	}
	return false
}

// backoff sleeps the exponential delay for attempt, aborting early on
// cancellation.
func (c *Coordinator) backoff(ctx context.Context, attempt int) error {
	d := c.cfg.BaseBackoff << (attempt - 2) // attempt 2 sleeps BaseBackoff
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// pickWorker deterministically spreads (shard, replica, attempt)
// across the fleet, skipping workers currently marked down. With every
// worker down it returns the base pick anyway — the health view may be
// stale, and a failed attempt costs one backoff.
func (c *Coordinator) pickWorker(shard, replica, attempt int) int {
	w := len(c.clients)
	start := (shard + replica + attempt) % w
	c.mu.Lock()
	defer c.mu.Unlock()
	for off := 0; off < w; off++ {
		i := (start + off) % w
		if !c.down[i] {
			return i
		}
	}
	return start
}

// markDown records worker loss (idempotent per down episode).
func (c *Coordinator) markDown(w int, col serve.BackendCollector) {
	c.mu.Lock()
	fresh := !c.down[w]
	c.down[w] = true
	c.everDown[w] = true
	c.mu.Unlock()
	if fresh {
		col.WorkerDown(w)
	}
}

// heartbeatLoop probes worker /v1/healthz on a ticker for the life of
// one Run: a down worker that answers again is revived and rejoins the
// assignment rotation; a live one that stops answering is marked down
// so stragglers stop receiving new shards. Exits when ctx is done.
func (c *Coordinator) heartbeatLoop(ctx context.Context, col serve.BackendCollector) {
	tick := time.NewTicker(c.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for i, cl := range c.clients {
			probeCtx, done := context.WithTimeout(ctx, c.cfg.Heartbeat)
			_, err := cl.Healthz(probeCtx)
			done()
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				c.markDown(i, col)
				continue
			}
			c.mu.Lock()
			c.down[i] = false
			c.mu.Unlock()
		}
	}
}

// journalKey is the byte-level identity of a replica's journal: a
// length-prefixed SHA-256 over the payload vector, truncated for
// readable divergence messages. Computed coordinator-side — a worker
// never reports its own digest.
func journalKey(payloads []json.RawMessage) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range payloads {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		_, _ = h.Write(lenBuf[:])
		_, _ = h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// RunRequest is the CLI entry point: parse the raw request, run it
// across the fleet, and assemble the merged result document —
// byte-identical to what besst-serve or the local CLIs produce for the
// same request.
func RunRequest(c *Coordinator, request []byte, cancel <-chan struct{}, col serve.BackendCollector) ([]byte, serve.BackendReport, error) {
	p, err := serve.ParsePlan(request)
	if err != nil {
		return nil, serve.BackendReport{}, err
	}
	payloads, rep, err := c.Run(request, 0, cancel, col)
	if err != nil {
		return nil, rep, err
	}
	if payloads == nil {
		return nil, rep, errors.New("dist: run cancelled")
	}
	doc, err := p.Assemble(payloads)
	if err != nil {
		return nil, rep, err
	}
	return doc, rep, nil
}

// ServeBackend returns c as the serve.Backend besst-serve executes
// admitted campaigns through, so they run on the worker fleet instead
// of in-process.
func ServeBackend(c *Coordinator) serve.Backend { return c }
