package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"besst/internal/besst"
	"besst/internal/dse"
	"besst/internal/lulesh"
	"besst/internal/stats"
)

// RequestSchemaVersion is bumped whenever CampaignRequest's layout
// changes incompatibly; requests carrying any other version are
// rejected with 400 rather than silently misread.
const RequestSchemaVersion = 1

// Campaign kinds.
const (
	KindSingle     = "single"      // one simulation run
	KindMonteCarlo = "monte_carlo" // replicated Monte Carlo campaign
	KindSweep      = "dse_sweep"   // design-space overhead sweep
)

// Bounds keeping one request from monopolizing the service.
const (
	maxTrials       = 1 << 16
	maxModelSamples = 1 << 12
	// MaxRequestBytes bounds a request body; a dist worker derives its
	// shard-body bound from it.
	MaxRequestBytes = 1 << 20
)

// CampaignRequest is the versioned body of POST /v1/campaigns. Its
// canonical JSON form (sorted keys, normalized numbers) is the campaign
// identity: the ID, the compile-cache keys, the checkpoint-journal
// manifest hash, and — when run.seed is zero — the master seed are all
// derived from it, so identical configs can never fork.
type CampaignRequest struct {
	SchemaVersion int `json:"schema_version"`
	// Kind selects the campaign shape: single | monte_carlo | dse_sweep.
	Kind string `json:"kind"`
	// Tenant scopes admission fairness (in-flight caps); empty means the
	// anonymous tenant. It is part of the campaign identity but not of
	// the compile-cache key: tenants share compiled artifacts.
	Tenant string `json:"tenant,omitempty"`
	// Run is the canonical serialized run configuration — the same
	// schema besst-sim -json emits, replayable verbatim.
	Run besst.RunSpec `json:"run"`
	// Trials is the Monte Carlo replication count (monte_carlo only).
	Trials int `json:"trials,omitempty"`
	// App selects the LULESH application build (single/monte_carlo).
	App *AppSpec `json:"app,omitempty"`
	// Model selects how performance models are developed; defaults to
	// symbolic regression on 10 samples per combination, seed 1.
	Model *ModelSpec `json:"model,omitempty"`
	// Sweep is the design-space grid (dse_sweep only).
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// AppSpec parameterizes the LULESH AppBEO builder.
type AppSpec struct {
	EPR      int    `json:"epr"`
	Ranks    int    `json:"ranks"`
	Steps    int    `json:"steps"`
	Scenario string `json:"scenario"` // noft | l1 | l1l2
	// Period overrides the checkpoint period in timesteps (0 keeps the
	// scenario default).
	Period int `json:"period,omitempty"`
}

// ModelSpec parameterizes model development. The seed defaults to 1
// rather than deriving from the request hash: model bundles are shared
// across requests through the compile cache, so their identity must
// depend only on these fields.
type ModelSpec struct {
	Method  string `json:"method,omitempty"` // symreg (default) | interp
	Samples int    `json:"samples,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
}

// SweepSpec is the dse_sweep grid, mirroring dse.SweepConfig.
type SweepSpec struct {
	EPRs      []int    `json:"eprs"`
	Ranks     []int    `json:"ranks"` // strictly ascending; first anchors the baseline
	Scenarios []string `json:"scenarios"`
	Timesteps int      `json:"timesteps"`
	MCRuns    int      `json:"mc_runs"`
	// Search, when present, runs the sweep as a surrogate-guided search
	// instead of exhaustive enumeration. It canonicalizes into the
	// campaign identity like every other field, so a searched and an
	// exhaustive sweep of the same grid are distinct campaigns.
	Search *SearchSpec `json:"search,omitempty"`
}

// SearchSpec mirrors dse.SearchConfig (its canonical fields only).
type SearchSpec struct {
	// Budget is the fraction of grid points the search may fully
	// simulate, in (0, 1].
	Budget float64 `json:"budget"`
	// RoundSize bounds full simulations per refinement round (0: auto).
	RoundSize int `json:"round_size,omitempty"`
	// Explore weighs surrogate uncertainty in the acquisition (0: 1).
	Explore float64 `json:"explore,omitempty"`
	// Patience is the no-improvement round tolerance (0: 2).
	Patience int `json:"patience,omitempty"`
}

// CampaignResult is the body of GET /v1/campaigns/{id}/result: one flat
// document covering all three kinds. It is built only from simulation
// outputs (never wall-clock), so for a given request it is
// byte-reproducible across worker counts, restarts, and cache states.
type CampaignResult struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Kind          string `json:"kind"`
	// Run echoes the effective run configuration with the derived seed
	// resolved, so any result can be replayed as a pinned request.
	Run besst.RunSpec `json:"run"`

	// single / monte_carlo:
	Trials       int              `json:"trials,omitempty"`
	Makespan     *stats.Summary   `json:"makespan,omitempty"`
	Makespans    []float64        `json:"makespans,omitempty"`
	EventsPerRun uint64           `json:"events_per_run,omitempty"`
	CkptTimes    []float64        `json:"ckpt_times,omitempty"`
	Breakdown    *besst.Breakdown `json:"breakdown,omitempty"`
	FailedTrials []int            `json:"failed_trials,omitempty"`

	// dse_sweep:
	Cells        []dse.Cell `json:"cells,omitempty"`
	FailedPoints []int      `json:"failed_points,omitempty"`
	// Search summarizes a surrogate-guided sweep (absent for
	// exhaustive sweeps, so their documents are unchanged).
	Search *SearchSummary `json:"search,omitempty"`
}

// SearchSummary is the result-side record of a surrogate-guided sweep:
// how much of the grid was fully simulated and which configuration won.
// Built only from simulation outputs, so it is byte-reproducible like
// the rest of the result document.
type SearchSummary struct {
	Budget     float64  `json:"budget"`
	GridPoints int      `json:"grid_points"`
	FullSims   int      `json:"full_sims"`
	Rounds     int      `json:"rounds"`
	Best       dse.Cell `json:"best"`
}

// CampaignStatus is the body of GET /v1/campaigns/{id} (and each line
// of the ?watch=1 NDJSON stream).
type CampaignStatus struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Kind          string `json:"kind"`
	Tenant        string `json:"tenant,omitempty"`
	// State is one of queued | running | done | failed | interrupted.
	State string `json:"state"`
	// Seed is the effective master seed (request seed or hash-derived).
	Seed uint64 `json:"seed"`
	// CacheHit reports, once the campaign finished, whether its compiled
	// artifact came from the compile cache.
	CacheHit *bool  `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Divergences lists replica disagreements observed while the
	// campaign ran on a distributed backend: each entry names a shard
	// whose replicas did not all return byte-identical journals. The
	// majority result was accepted (otherwise the campaign fails), but
	// a divergence is never silent — it means a worker computed, or
	// reported, different bytes for the same deterministic work.
	Divergences []string `json:"divergences,omitempty"`
	// Progress is the live obs.Collector campaign snapshot.
	Progress  obsProgress `json:"progress"`
	ResultURL string      `json:"result_url,omitempty"`
}

// errorDoc is every non-2xx JSON body.
type errorDoc struct {
	Error string `json:"error"`
}

// plan is a validated, defaulted, executable request.
type plan struct {
	req       CampaignRequest
	id        string
	canonical []byte          // canonical request JSON (the campaign identity)
	seed      uint64          // effective master seed
	runCfg    besst.RunConfig // single / monte_carlo; Seed resolved
	trials    int             // single: 1
	scenario  lulesh.Scenario // app scenario with period applied
	sweepCfg  dse.SweepConfig // dse_sweep; Seed resolved, Workers/Collector unset
	// searchCfg is non-nil for surrogate-guided sweeps (Cancel unset —
	// runtime plumbing is attached at execution).
	searchCfg *dse.SearchConfig
}

// units is the number of independent work items the campaign shards
// into: Monte Carlo trials, or distinct sweep design points.
func (pl *plan) units() int {
	if pl.req.Kind == KindSweep {
		return dse.NewGrid(pl.sweepCfg).NumPoints()
	}
	return pl.trials
}

// badRequest is a 400-class plan error.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func reject(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// buildPlan strictly decodes the canonical request bytes and validates
// every field through the same Validate paths the CLIs use
// (besst.RunSpec.Config, dse.SweepConfig.Validate, lulesh.ParseScenario).
func buildPlan(id string, sum [sha256.Size]byte, canonical []byte) (*plan, error) {
	var req CampaignRequest
	dec := json.NewDecoder(bytes.NewReader(canonical))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, reject("bad request: %v", err)
	}
	if req.SchemaVersion != 0 && req.SchemaVersion != RequestSchemaVersion {
		return nil, reject("unsupported schema_version %d (want %d)", req.SchemaVersion, RequestSchemaVersion)
	}

	pl := &plan{req: req, id: id, canonical: canonical}
	pl.seed = req.Run.Seed
	if pl.seed == 0 {
		pl.seed = DeriveSeed(sum)
	}

	switch req.Kind {
	case KindSingle, KindMonteCarlo:
		if req.App == nil {
			return nil, reject("%s campaign requires an app spec", req.Kind)
		}
		cfg, err := req.Run.Config()
		if err != nil {
			return nil, reject("run: %v", err)
		}
		cfg.Seed = pl.seed
		if req.Kind == KindMonteCarlo {
			cfg.MonteCarlo = true
			if req.Trials <= 0 {
				return nil, reject("monte_carlo campaign requires trials >= 1")
			}
			if req.Trials > maxTrials {
				return nil, reject("trials %d exceeds the %d bound", req.Trials, maxTrials)
			}
			pl.trials = req.Trials
		} else {
			if req.Trials > 1 {
				return nil, reject("single campaign cannot set trials (%d); use kind monte_carlo", req.Trials)
			}
			pl.trials = 1
		}
		pl.runCfg = cfg
		sc, err := validateApp(req.App)
		if err != nil {
			return nil, err
		}
		pl.scenario = sc
	case KindSweep:
		if req.Sweep == nil {
			return nil, reject("dse_sweep campaign requires a sweep spec")
		}
		if req.App != nil || req.Trials != 0 {
			return nil, reject("dse_sweep campaign takes a sweep grid, not app/trials")
		}
		scenarios := make([]lulesh.Scenario, 0, len(req.Sweep.Scenarios))
		for _, name := range req.Sweep.Scenarios {
			sc, err := lulesh.ParseScenario(name)
			if err != nil {
				return nil, reject("sweep: %v", err)
			}
			scenarios = append(scenarios, sc)
		}
		cfg := dse.NewSweepConfig(
			dse.WithEPRs(req.Sweep.EPRs...),
			dse.WithRanks(req.Sweep.Ranks...),
			dse.WithScenarios(scenarios...),
			dse.WithTimesteps(req.Sweep.Timesteps),
			dse.WithMCRuns(req.Sweep.MCRuns),
			dse.WithSeed(pl.seed),
		)
		if err := cfg.Validate(); err != nil {
			return nil, reject("sweep: %v", err)
		}
		if cfg.MCRuns > maxTrials {
			return nil, reject("sweep mc_runs %d exceeds the %d bound", cfg.MCRuns, maxTrials)
		}
		for _, r := range cfg.Ranks {
			if !lulesh.IsPerfectCube(r) {
				return nil, reject("sweep ranks %d is not a perfect cube", r)
			}
		}
		pl.sweepCfg = cfg
		if req.Sweep.Search != nil {
			scfg := dse.SearchConfig{
				Budget:    req.Sweep.Search.Budget,
				RoundSize: req.Sweep.Search.RoundSize,
				Explore:   req.Sweep.Search.Explore,
				Patience:  req.Sweep.Search.Patience,
			}
			if err := scfg.Validate(); err != nil {
				return nil, reject("sweep: %v", err)
			}
			pl.searchCfg = &scfg
		}
	case "":
		return nil, reject("kind is required: single | monte_carlo | dse_sweep")
	default:
		return nil, reject("unknown kind %q (want single | monte_carlo | dse_sweep)", req.Kind)
	}

	model, err := validateModel(req.Model)
	if err != nil {
		return nil, err
	}
	pl.req.Model = &model
	return pl, nil
}

// validateApp checks the app spec and resolves its scenario (with the
// period override applied).
func validateApp(app *AppSpec) (lulesh.Scenario, error) {
	if app.EPR <= 0 {
		return lulesh.Scenario{}, reject("app: non-positive epr %d", app.EPR)
	}
	if app.Steps <= 0 {
		return lulesh.Scenario{}, reject("app: non-positive steps %d", app.Steps)
	}
	if !lulesh.IsPerfectCube(app.Ranks) {
		return lulesh.Scenario{}, reject("app: ranks %d is not a perfect cube", app.Ranks)
	}
	if app.Period < 0 {
		return lulesh.Scenario{}, reject("app: negative checkpoint period %d", app.Period)
	}
	sc, err := lulesh.ParseScenario(app.Scenario)
	if err != nil {
		return lulesh.Scenario{}, reject("app: %v", err)
	}
	if app.Period > 0 {
		for i := range sc.Schedules {
			sc.Schedules[i].Period = app.Period
		}
	}
	return sc, nil
}

// validateModel applies model-spec defaults (symreg, 10 samples, seed 1)
// and bounds.
func validateModel(m *ModelSpec) (ModelSpec, error) {
	spec := ModelSpec{Method: "symreg", Samples: 10, Seed: 1}
	if m != nil {
		spec = *m
	}
	if spec.Method == "" {
		spec.Method = "symreg"
	}
	if spec.Method != "symreg" && spec.Method != "interp" {
		return spec, reject("model: unknown method %q (want symreg | interp)", spec.Method)
	}
	if spec.Samples == 0 {
		spec.Samples = 10
	}
	if spec.Samples < 0 || spec.Samples > maxModelSamples {
		return spec, reject("model: samples %d outside [1, %d]", spec.Samples, maxModelSamples)
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	return spec, nil
}

// effectiveSpec is the run spec echoed in results: the request's run
// configuration with the derived seed pinned.
func (pl *plan) effectiveSpec() besst.RunSpec {
	if pl.req.Kind == KindSweep {
		spec := pl.req.Run
		spec.SchemaVersion = besst.SpecSchemaVersion
		spec.Seed = pl.seed
		return spec
	}
	return pl.runCfg.Spec()
}
