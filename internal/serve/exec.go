package serve

import (
	"encoding/json"
	"errors"

	"besst/internal/dse"
	"besst/internal/resilience"
)

// This file is the out-of-process execution surface of the service:
// everything a distributed coordinator (internal/dist) or a
// besst-worker process needs to execute a slice of a campaign and
// assemble the merged result, without serve ever importing them.
//
// There is one unit-execution path. artifacts.unitWork turns a plan
// into a resilience.WorkFunc, and resilience.Campaign — the only
// quarantine barrier — runs it: the server over units [0, n) with its
// journal, retry policy and drain channel; a worker over its shard's
// [lo, hi) with one attempt per unit, because retrying a shard is the
// coordinator's job. A unit that panics or errors comes back as a nil
// payload on both paths, and both vectors fold through plan.assemble.
//
// The determinism chain that makes sharding sound: a campaign's
// identity is its canonical request JSON (canon.go); its master seed
// is pinned or hash-derived from that identity; par.SeedFan pre-draws
// one seed per unit (trial or sweep point) from the master seed; so
// unit i's payload bytes are a pure function of (request, i) — any
// process can compute any index range and the results merge
// byte-identically.

// IsBadRequest reports whether err classifies as a 400-class request
// error (malformed, invalid, or out-of-bounds request fields) rather
// than an execution failure. The worker handler uses it to answer 400
// — telling the coordinator not to retry — instead of 500.
func IsBadRequest(err error) bool {
	var b *badRequest
	return errors.As(err, &b)
}

// Plan is the coordinator-side view of a validated campaign request:
// enough to know the campaign's identity, shape, and unit count, and
// to assemble worker-computed payloads into the final result document
// — without compiling models or running anything.
type Plan struct {
	pl *plan
}

// ParsePlan canonicalizes, hashes, and validates raw request JSON.
// Errors classify with IsBadRequest.
func ParsePlan(raw []byte) (*Plan, error) {
	id, canonical, sum, err := HashRequest(raw)
	if err != nil {
		return nil, reject("bad request: %v", err)
	}
	pl, err := buildPlan(id, sum, canonical)
	if err != nil {
		return nil, err
	}
	return &Plan{pl: pl}, nil
}

// ID is the content-addressed campaign ID.
func (p *Plan) ID() string { return p.pl.id }

// Kind is the campaign kind: single, monte_carlo, or dse_sweep.
func (p *Plan) Kind() string { return p.pl.req.Kind }

// Canonical returns the canonical request JSON — the bytes whose hash
// is the campaign ID, and the exact request representation shards
// carry so every worker rebuilds the identical plan.
func (p *Plan) Canonical() []byte { return p.pl.canonical }

// Units is the number of independent work items the campaign shards
// into: Monte Carlo trials, or distinct sweep design points.
func (p *Plan) Units() int { return p.pl.units() }

// Assemble folds a complete per-unit payload vector (index order) into
// the campaign's result document — byte-identical to what an
// in-process run of the same request produces.
func (p *Plan) Assemble(payloads []json.RawMessage) ([]byte, error) {
	return p.pl.assemble(payloads)
}

// ExecConfig parameterizes a ShardExecutor.
type ExecConfig struct {
	// Workers bounds intra-shard unit concurrency (<= 0: 1; a worker
	// process typically runs many shards' units serially and scales by
	// process count, not goroutines).
	Workers int
	// CacheCap bounds the compile cache (<= 0: 8 artifacts).
	CacheCap int
	// Chaos is the deterministic fault injector applied before every
	// unit — including KillRate, which SIGKILLs the worker process
	// mid-shard. The schedule is a pure function of (Chaos.Seed, unit
	// index), so a chaos-killed worker dies at the same unit on every
	// run: the reassignment guarantee is provable, not probabilistic.
	Chaos resilience.ChaosConfig
	// Memo, when non-nil, is the cross-campaign design-point result
	// cache shared with the process's other executors; nil builds a
	// private in-memory memo with the default capacity.
	Memo *dse.Memo
}

// ShardExecutor executes index ranges of shardable campaigns — the
// compute half of a besst-worker process. It rebuilds the plan from
// the canonical request bytes (verifying the campaign ID), compiles
// through its own single-flight LRU artifact cache, and returns one
// canonical payload per unit. It implements internal/dist's Executor
// interface structurally.
type ShardExecutor struct {
	cfg  ExecConfig
	arts *artifacts
}

// NewShardExecutor builds an executor with a warm-capable cache.
func NewShardExecutor(cfg ExecConfig) *ShardExecutor {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &ShardExecutor{cfg: cfg, arts: newArtifacts(cfg.CacheCap, cfg.Memo)}
}

// ExecShard executes units [lo, hi) of the campaign identified by
// campaignID and returns their canonical payloads in index order.
// The request bytes are the source of truth: the executor re-derives
// the campaign ID and rejects a mismatch, so a shard can never run
// under the wrong identity.
func (x *ShardExecutor) ExecShard(campaignID string, request []byte, lo, hi int) ([]json.RawMessage, error) {
	p, err := ParsePlan(request)
	if err != nil {
		return nil, err
	}
	if campaignID != "" && campaignID != p.ID() {
		return nil, reject("campaign id %s does not match request hash %s", campaignID, p.ID())
	}
	pl := p.pl
	if pl.searchCfg != nil {
		// A searched sweep is adaptive: round N's shard membership
		// depends on round N-1's results, so there is no static index
		// space to shard. The coordinator never dispatches one; a
		// direct request is a caller error.
		return nil, reject("surrogate-guided sweeps are not sharded; POST them to besst-serve directly")
	}
	if pl.req.Kind == KindSingle {
		return nil, reject("single campaigns are not sharded; POST them to besst-serve directly")
	}
	n := pl.units()
	if lo < 0 || hi > n || lo >= hi {
		return nil, reject("shard [%d, %d) outside the campaign's %d units", lo, hi, n)
	}

	work, _, err := x.arts.unitWork(pl, nil)
	if err != nil {
		return nil, err
	}
	payloads, _, err := x.campaign().RunRange(n, lo, hi, work)
	return payloads, err
}

// campaign is the worker's fault envelope: chaos keyed by the absolute
// unit index, and a single attempt per unit. A unit that fails it is
// quarantined (a nil payload, JSON null on the wire) rather than
// failing the shard — the same record the server's local campaign
// writes once its retries run out, so both paths agree on which units
// failed. Failures are pure functions of (request, i), so every
// replica quarantines the same units and replication still converges.
func (x *ShardExecutor) campaign() resilience.Campaign {
	return resilience.Campaign{
		Workers:     x.cfg.Workers,
		Chaos:       x.cfg.Chaos,
		MaxAttempts: 1,
	}
}

// Statz reports the executor's compile-cache counters (the worker's
// /v1/statz document body).
func (x *ShardExecutor) Statz() CacheStats { return x.arts.cache.Stats() }

// MemoStatz reports the executor's point-memo counters.
func (x *ShardExecutor) MemoStatz() dse.MemoStats { return x.arts.memo.Stats() }
