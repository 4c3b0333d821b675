package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"besst/internal/serve"
)

// SmokeConfig parameterizes the self-contained service smoke check.
type SmokeConfig struct {
	// Golden, when non-empty, is the committed result document the
	// quickstart campaign must reproduce byte-for-byte.
	Golden string
	// Update rewrites Golden from the live result instead of diffing.
	Update bool
}

// QuickstartRequest is the README quickstart campaign: a small
// direct-mode Monte Carlo run whose result document is committed as a
// golden file. Everything is pinned (seed included) so the bytes are
// stable. The distributed smoke (internal/dist) reuses it so the
// sharded merge can be diffed against the same golden.
const QuickstartRequest = `{
  "schema_version": 1,
  "kind": "monte_carlo",
  "tenant": "smoke",
  "trials": 5,
  "run": {"schema_version": 1, "mode": "direct", "monte_carlo": true, "per_rank_noise": true, "seed": 7},
  "app": {"epr": 5, "ranks": 8, "steps": 20, "scenario": "l1", "period": 10},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`

// searchRequest is the pinned surrogate-guided sweep campaign.
// Everything is pinned (seed included) so the result bytes are stable,
// the grid is small enough to settle in well under a second, and the 50%
// budget forces the search to leave part of the grid to the
// surrogates — exercising the predicted-cell path too.
const searchRequest = `{
  "schema_version": 1,
  "kind": "dse_sweep",
  "tenant": "smoke",
  "run": {"seed": 7},
  "sweep": {
    "eprs": [5, 6, 7, 8],
    "ranks": [8, 27],
    "scenarios": ["noft", "l1"],
    "timesteps": 10,
    "mc_runs": 2,
    "search": {"budget": 0.5, "round_size": 2}
  },
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`

// smokeCase is one pinned campaign the smoke runs twice against a
// fresh in-process server.
type smokeCase struct {
	name    string
	request string
	// golden marks the case whose result SmokeConfig.Golden pins.
	golden bool
	// check gates the case's own invariant, given the result body and
	// the /v1/statz documents after the cold and the warm run. It
	// returns the counters the OK line reports.
	check func(body []byte, cold, warm serve.Statz) (string, error)
}

// smokeCases are the service invariants Smoke gates on, beyond the
// byte-identical cold/warm bodies every case must produce.
var smokeCases = []smokeCase{
	{
		// The quickstart re-post must be served by the warm compile
		// cache and reproduce the committed golden document.
		name: "quickstart", request: QuickstartRequest, golden: true,
		check: func(_ []byte, _, warm serve.Statz) (string, error) {
			if warm.Cache.Hits == 0 {
				return "", fmt.Errorf("second identical request did not hit the compile cache (hits=0, misses=%d)", warm.Cache.Misses)
			}
			return fmt.Sprintf("compile cache hits=%d misses=%d", warm.Cache.Hits, warm.Cache.Misses), nil
		},
	},
	{
		// The cold search populates the point memo and the warm one is
		// served from it (memo hits return the exact floats the cold
		// run computed); the search must genuinely skip grid points.
		name: "search", request: searchRequest,
		check: func(body []byte, cold, warm serve.Statz) (string, error) {
			if cold.PointMemo.Misses == 0 {
				return "", fmt.Errorf("cold run recorded no memo misses (entries=%d)", cold.PointMemo.Entries)
			}
			if warm.PointMemo.Hits <= cold.PointMemo.Hits {
				return "", fmt.Errorf("warm run did not hit the point memo (hits %d -> %d, misses %d -> %d)",
					cold.PointMemo.Hits, warm.PointMemo.Hits, cold.PointMemo.Misses, warm.PointMemo.Misses)
			}
			var doc serve.CampaignResult
			if err := json.Unmarshal(body, &doc); err != nil {
				return "", fmt.Errorf("decode result: %w", err)
			}
			if doc.Search == nil {
				return "", fmt.Errorf("result carries no search summary")
			}
			if doc.Search.FullSims >= doc.Search.GridPoints {
				return "", fmt.Errorf("search simulated the whole grid (%d of %d points)", doc.Search.FullSims, doc.Search.GridPoints)
			}
			return fmt.Sprintf("%d/%d points simulated, memo hits=%d misses=%d",
				doc.Search.FullSims, doc.Search.GridPoints, warm.PointMemo.Hits, warm.PointMemo.Misses), nil
		},
	},
}

// Smoke runs every smoke case end to end: each boots an in-process
// server on a loopback port, runs its campaign twice over real HTTP
// through the typed client, and requires byte-identical cold and warm
// result bodies plus the case's own invariant — a compile-cache hit
// and a golden match for the quickstart, memo hits and a partial grid
// for the surrogate search.
//
// Servers run without a state directory on purpose: the second POST
// must genuinely re-execute through the warm caches, not replay a
// journal.
func Smoke(out io.Writer, cfg SmokeConfig) error {
	for _, sc := range smokeCases {
		if err := sc.run(out, cfg); err != nil {
			return fmt.Errorf("serve smoke %s: %w", sc.name, err)
		}
	}
	return nil
}

// run executes one smoke case against its own server.
func (sc smokeCase) run(out io.Writer, cfg SmokeConfig) error {
	srv := serve.NewServer(serve.Config{MaxActive: 2, MaxQueued: 8, MaxPerTenant: 2, CacheCap: 4})
	defer srv.Drain()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() { _ = httpSrv.Close() }()
	c := New("http://"+ln.Addr().String(), "")

	first, err := RunCampaign(c, []byte(sc.request), 2*time.Minute)
	if err != nil {
		return fmt.Errorf("cold run: %w", err)
	}
	cold, err := c.Statz(context.Background())
	if err != nil {
		return err
	}
	second, err := RunCampaign(c, []byte(sc.request), 2*time.Minute)
	if err != nil {
		return fmt.Errorf("warm run: %w", err)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("cold and warm result bodies differ (%d vs %d bytes)", len(first), len(second))
	}
	warm, err := c.Statz(context.Background())
	if err != nil {
		return err
	}
	summary, err := sc.check(first, cold, warm)
	if err != nil {
		return err
	}

	if sc.golden && cfg.Golden != "" {
		if cfg.Update {
			if err := os.WriteFile(cfg.Golden, first, 0o644); err != nil {
				return fmt.Errorf("update golden: %w", err)
			}
			_, _ = fmt.Fprintf(out, "serve smoke: golden updated: %s (%d bytes)\n", cfg.Golden, len(first))
		} else {
			want, err := os.ReadFile(cfg.Golden)
			if err != nil {
				return fmt.Errorf("read golden (run with -update-golden to create): %w", err)
			}
			if !bytes.Equal(first, want) {
				return fmt.Errorf("result diverged from golden %s (%d vs %d bytes); "+
					"if the change is intentional, regenerate with -update-golden", cfg.Golden, len(first), len(want))
			}
		}
	}
	_, _ = fmt.Fprintf(out, "serve smoke %s OK: byte-identical cold/warm results, %s\n", sc.name, summary)
	return nil
}

// RunCampaign submits raw request JSON, waits until the campaign
// settles (bounded by timeout), and returns the result document bytes.
// A settled state other than done is an error carrying the campaign's
// own error string.
func RunCampaign(c *Client, raw []byte, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	st, err := c.SubmitRaw(ctx, raw)
	if err != nil {
		return nil, err
	}
	st, err = c.Wait(ctx, st.ID, 0)
	if err != nil {
		return nil, err
	}
	if st.State != serve.StateDone {
		return nil, fmt.Errorf("campaign %s is %s: %s", st.ID, st.State, st.Error)
	}
	return c.Result(ctx, st.ID)
}
