package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/resilience"
	"besst/internal/stats"
	"besst/internal/workflow"
)

// modelArtifact is a cached model-development result: the emulator
// (machine description + FTI cost config) and the fitted model bundle.
type modelArtifact struct {
	em     *groundtruth.Emulator
	models *workflow.Models
}

// compiledArtifact is a cached compiled application: the AppBEO bound
// to its modeled architecture, ready for RunWith/Replicate at any
// seed or worker count.
type compiledArtifact struct {
	cr *besst.CompiledRun
}

// cacheKey builds a canonical cache key from a defaulted spec struct.
// encoding/json emits struct fields in declaration order, so equal
// specs always produce equal keys.
func cacheKey(prefix string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: cache key marshal: %v", err))
	}
	return prefix + "|" + string(b)
}

// artifacts is the compile pipeline behind both the Server and the
// standalone ShardExecutor: a single-flight LRU cache of developed
// model bundles and compiled applications. Splitting it from Server
// lets a besst-worker process reuse the exact build path (and
// cache-key discipline) of the service without carrying its admission
// machinery.
type artifacts struct {
	cache *cache
	// memo is the cross-campaign design-point result cache shared by
	// every sweep execution path (in-process, search, and shard).
	memo *dse.Memo
}

func newArtifacts(cap int, memo *dse.Memo) *artifacts {
	if memo == nil {
		memo = dse.NewMemo(0)
	}
	return &artifacts{cache: newCache(cap), memo: memo}
}

// memoBundle is the model-bundle half of a design point's memo key: the
// compile-cache model key canonically identifies which machine, app
// family, model method, sample count, and model seed produced the
// predictors a sweep evaluates against.
func memoBundle(spec ModelSpec) string { return cacheKey("model", spec) }

// models fetches (or develops) the model artifact for a plan's model
// spec through the compile cache.
func (a *artifacts) models(spec ModelSpec) (*modelArtifact, bool, error) {
	v, hit, err := a.cache.Get(cacheKey("model", spec), func() (art any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: model development failed: %v", r)
			}
		}()
		method := workflow.SymbolicRegression
		if spec.Method == "interp" {
			method = workflow.Interpolation
		}
		em := groundtruth.NewQuartz()
		models, _ := workflow.DevelopLuleshQuartz(em, spec.Samples, method, spec.Seed)
		return &modelArtifact{em: em, models: models}, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*modelArtifact), hit, nil
}

// compiled fetches (or builds) the compiled application for a plan
// through the compile cache. The key covers the model spec and the app
// spec — everything that determines the compiled artifact — but not
// the run spec, seed, or tenant, so re-posts and seed variations of
// one config always hit.
func (a *artifacts) compiled(pl *plan) (*compiledArtifact, bool, error) {
	ma, _, err := a.models(*pl.req.Model)
	if err != nil {
		return nil, false, err
	}
	key := cacheKey("app", struct {
		Model ModelSpec
		App   AppSpec
	}{*pl.req.Model, *pl.req.App})
	v, hit, err := a.cache.Get(key, func() (art any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: compile failed: %v", r)
			}
		}()
		cfg := ma.em.Cost.Config
		app := lulesh.App(pl.req.App.EPR, pl.req.App.Ranks, pl.req.App.Steps, pl.scenario, cfg)
		arch := beo.NewArchBEO(ma.em.M, cfg.NodeSize)
		workflow.BindLulesh(arch, ma.models)
		if verr := arch.Validate(app); verr != nil {
			return nil, fmt.Errorf("serve: compile failed: %w", verr)
		}
		cr, cerr := besst.CompileErr(app, arch)
		if cerr != nil {
			return nil, fmt.Errorf("serve: compile failed: %w", cerr)
		}
		return &compiledArtifact{cr: cr}, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*compiledArtifact), hit, nil
}

// campaignFor assembles the resilience envelope for one campaign: the
// checkpoint journal lives under the state directory keyed by the
// campaign ID, so a drained or crashed campaign resumes exactly where
// it stopped when the identical request is re-posted.
func (s *Server) campaignFor(c *campaign) resilience.Campaign {
	camp := resilience.Campaign{
		Tool:       "serve_" + c.plan.id,
		ConfigHash: c.plan.id,
		Seed:       c.plan.seed,
		Workers:    s.workersFor(c.plan),
		CkptEvery:  1,
		Collector:  c.collector,
		Cancel:     s.draining,
	}
	if s.cfg.StateDir != "" {
		camp.Path = resilience.JournalPath(s.cfg.StateDir, camp.Tool)
		if _, err := os.Stat(camp.Path); err == nil {
			camp.Resume = true
		}
	}
	return camp
}

// workersFor resolves a plan's replication worker count: the request's
// run.workers if pinned, otherwise the server default.
func (s *Server) workersFor(pl *plan) int {
	if pl.runCfg.Workers > 0 {
		return pl.runCfg.Workers
	}
	return s.cfg.Workers
}

// unitCollector is the per-unit observability a campaign's work
// reports to: trial brackets and engine totals for runs, point brackets
// for sweeps. *obs.Collector implements both halves.
type unitCollector interface {
	besst.Collector
	dse.Collector
}

// unitWork compiles a non-search plan through the artifact cache and
// returns its per-unit work, plus whether the compile cache already
// held the artifact. Unit i's payload is a pure function of (plan, i)
// — trial seeds and point seeds are pre-drawn from the master seed —
// so the server's campaign and a worker's shard compute the same bytes
// for the same index. col, when non-nil, receives the units' brackets;
// it never influences results.
//
// A single campaign is one unit run through RunWith, which seeds from
// the master seed itself; TrialRunner(1) would draw a different one.
func (a *artifacts) unitWork(pl *plan, col unitCollector) (resilience.WorkFunc, bool, error) {
	if pl.req.Kind == KindSweep {
		cfg := pl.sweepCfg
		cfg.Collector = col
		prepared, hit, err := a.sweep(pl, cfg)
		if err != nil {
			return nil, hit, err
		}
		return func(i int) (json.RawMessage, error) {
			return json.Marshal(prepared.EvalPoint(i))
		}, hit, nil
	}
	art, hit, err := a.compiled(pl)
	if err != nil {
		return nil, hit, err
	}
	cfg := pl.runCfg
	cfg.Collector = col
	if pl.req.Kind == KindSingle {
		return func(int) (json.RawMessage, error) {
			return art.cr.RunWith(cfg).Payload()
		}, hit, nil
	}
	runner, err := art.cr.TrialRunner(pl.trials, func(dst *besst.RunConfig) { *dst = cfg })
	if err != nil {
		return nil, hit, err
	}
	return func(i int) (json.RawMessage, error) {
		return runner(i).Payload()
	}, hit, nil
}

// sweep prepares a plan's sweep grid against its cached model bundle,
// with the shared point memo attached.
func (a *artifacts) sweep(pl *plan, cfg dse.SweepConfig) (*dse.PreparedSweep, bool, error) {
	ma, hit, err := a.models(*pl.req.Model)
	if err != nil {
		return nil, hit, err
	}
	prepared := dse.PrepareSweep(ma.models, ma.em.M, ma.em.Cost.Config.NodeSize, cfg)
	prepared.AttachMemo(a.memo, memoBundle(*pl.req.Model))
	return prepared, hit, nil
}

// execute runs one admitted campaign to its result document. A nil
// body with a nil error means the campaign was drained mid-flight
// (state interrupted); its journal holds the completed prefix.
//
// Every campaign but a surrogate-guided search gets its payload vector
// from one of two places — the distributed backend or the local
// campaign — and folds it through the same assemble, so the two are
// byte-identical by construction.
func (s *Server) execute(c *campaign) (body []byte, cacheHit bool, err error) {
	pl := c.plan
	if pl.searchCfg != nil {
		// Surrogate-guided sweeps are adaptive — each round's candidates
		// depend on the previous round's results — so they are never
		// sharded to a backend; the point memo recoups re-execution cost
		// instead of a checkpoint journal.
		return s.executeSearch(c)
	}
	var payloads []json.RawMessage
	if s.cfg.Backend != nil && pl.req.Kind != KindSingle {
		var rep BackendReport
		payloads, rep, err = s.cfg.Backend.Run(pl.canonical, pl.units(), s.draining, c.collector)
		if len(rep.Divergences) > 0 {
			s.mu.Lock()
			c.divergences = append([]string(nil), rep.Divergences...)
			s.mu.Unlock()
		}
	} else {
		payloads, cacheHit, err = s.runLocal(c)
	}
	if err != nil || payloads == nil {
		return nil, cacheHit, err // nil payloads: drained mid-campaign
	}
	body, err = pl.assemble(payloads)
	return body, cacheHit, err
}

// runLocal executes every unit of a campaign in process, under the
// campaign's checkpoint journal, retry policy and drain channel. It
// returns nil payloads when a drain left units unrun.
func (s *Server) runLocal(c *campaign) ([]json.RawMessage, bool, error) {
	work, hit, err := s.arts.unitWork(c.plan, c.collector)
	if err != nil {
		return nil, hit, err
	}
	if pause := s.trialPause; pause > 0 {
		inner := work
		work = func(i int) (json.RawMessage, error) {
			time.Sleep(pause)
			return inner(i)
		}
	}
	payloads, rep, err := s.campaignFor(c).Run(c.plan.units(), work)
	if err != nil || rep.Skipped > 0 {
		return nil, hit, err
	}
	return payloads, hit, nil
}

// executeSearch handles surrogate-guided dse_sweep campaigns. There is
// no checkpoint journal: the search's adaptive rounds have no fixed
// unit order to journal against, and the point memo already persists
// the expensive part — a drained search re-posted later replays its
// completed evaluations as memo hits and re-runs only the remainder.
func (s *Server) executeSearch(c *campaign) ([]byte, bool, error) {
	pl := c.plan
	cfg := pl.sweepCfg
	cfg.Workers = s.workersFor(pl)
	cfg.Collector = c.collector
	prepared, hit, err := s.arts.sweep(pl, cfg)
	if err != nil {
		return nil, hit, err
	}
	scfg := *pl.searchCfg
	scfg.Cancel = s.draining
	res, err := prepared.Search(scfg)
	if err != nil {
		if errors.Is(err, dse.ErrSearchCanceled) {
			return nil, hit, nil // drained; memo holds the completed evaluations
		}
		return nil, hit, err
	}
	doc := sweepDoc(pl, res.Cells, nil)
	doc.Search = &SearchSummary{
		Budget:     pl.searchCfg.Budget,
		GridPoints: prepared.NumPoints(),
		FullSims:   res.FullSims,
		Rounds:     res.Rounds,
		Best:       res.Best,
	}
	return marshalResult(doc), hit, nil
}

// assemble folds a complete per-unit payload vector (trial results or
// sweep-point means, in index order) into the campaign's result
// document. Local campaigns and distributed shards both end here, so
// payloads computed by any process, in any shard geometry, assemble
// into the same bytes — provided every unit is present, which the
// distributed layer guarantees by failing the campaign rather than
// merging holes.
//
// A nil (wire: JSON null) payload is not a hole: it records that
// resilience.Campaign quarantined the unit — locally once the retry
// policy gave up, on a worker after its single attempt. Quarantined
// units surface as failed indices in the document: zero-mean cells for
// sweeps, failed trials for single and Monte Carlo campaigns.
func (pl *plan) assemble(payloads []json.RawMessage) ([]byte, error) {
	if want := pl.units(); len(payloads) != want {
		return nil, fmt.Errorf("serve: assembling %d payloads for a %d-unit campaign", len(payloads), want)
	}
	var failed []int
	for i, p := range payloads {
		if quarantined(p) {
			payloads[i] = nil
			failed = append(failed, i)
		}
	}
	if pl.req.Kind == KindSweep {
		means := make([]float64, len(payloads))
		for i, p := range payloads {
			if p == nil {
				continue // quarantined point: zero mean, listed in failed
			}
			if err := json.Unmarshal(p, &means[i]); err != nil {
				return nil, fmt.Errorf("serve: decode sweep point %d: %w", i, err)
			}
		}
		cells := dse.NewGrid(pl.sweepCfg).Cells(means)
		return marshalResult(sweepDoc(pl, cells, failed)), nil
	}
	results, err := resilience.Decode[besst.Result](payloads)
	if err != nil {
		return nil, err
	}
	runs := make([]*besst.Result, 0, len(results))
	for _, r := range results {
		if r != nil {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("serve: every trial was quarantined")
	}
	return marshalResult(resultDoc(pl, runs, failed)), nil
}

// quarantined reports whether a payload marks a quarantined unit: nil
// in-process, the literal null after a JSON wire round-trip.
func quarantined(p json.RawMessage) bool {
	return len(p) == 0 || string(p) == "null"
}

// sweepDoc builds the dse_sweep result document.
func sweepDoc(pl *plan, cells []dse.Cell, failed []int) CampaignResult {
	return CampaignResult{
		SchemaVersion: RequestSchemaVersion,
		ID:            pl.id,
		Kind:          pl.req.Kind,
		Run:           pl.effectiveSpec(),
		Cells:         cells,
		FailedPoints:  failed,
	}
}

// resultDoc builds the single/monte_carlo result document from the
// completed runs (in trial order).
func resultDoc(pl *plan, runs []*besst.Result, failed []int) CampaignResult {
	summary := stats.Summarize(besst.Makespans(runs))
	first := runs[0]
	return CampaignResult{
		SchemaVersion: RequestSchemaVersion,
		ID:            pl.id,
		Kind:          pl.req.Kind,
		Run:           pl.effectiveSpec(),
		Trials:        pl.trials,
		Makespan:      &summary,
		Makespans:     besst.Makespans(runs),
		EventsPerRun:  first.Events,
		CkptTimes:     first.CkptTimes,
		Breakdown:     &first.Breakdown,
		FailedTrials:  failed,
	}
}

// marshalResult renders the result document. Indentation is fixed so
// the bytes are stable for golden diffs and byte-identity checks.
func marshalResult(doc CampaignResult) []byte {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("serve: marshal result: %v", err))
	}
	return append(b, '\n')
}
