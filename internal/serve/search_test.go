package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/workflow"
)

const searchRequest = `{
  "schema_version": 1,
  "kind": "dse_sweep",
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

// TestSearchCampaign drives a surrogate-guided sweep through the full
// service stack: the result document carries the search summary, cells
// the search skipped are flagged predicted, a re-POST re-executes
// through the point memo byte-identically, and /v1/statz exposes the
// memo counters.
func TestSearchCampaign(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheCap: 4})

	st, resp := post(t, ts.URL, searchRequest)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	st = waitState(t, ts.URL, st.ID)
	if st.State != StateDone {
		t.Fatalf("campaign %s: %s", st.State, st.Error)
	}
	first := result(t, ts.URL, st.ID)

	var doc CampaignResult
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if doc.Search == nil {
		t.Fatal("result carries no search summary")
	}
	if doc.Search.GridPoints != 16 || doc.Search.FullSims >= 16 || doc.Search.FullSims == 0 {
		t.Fatalf("search summary %+v, want 0 < full_sims < 16 grid points", doc.Search)
	}
	if doc.Search.Best.MeanSec <= 0 {
		t.Fatalf("best cell %+v", doc.Search.Best)
	}
	predicted := 0
	for _, c := range doc.Cells {
		if c.Predicted {
			predicted++
		}
	}
	if predicted == 0 {
		t.Fatal("no cells flagged predicted at a 50% budget")
	}

	var stz Statz
	if err := getJSON(ts.URL+"/v1/statz", &stz); err != nil {
		t.Fatal(err)
	}
	if stz.PointMemo.Misses == 0 || stz.PointMemo.Entries == 0 {
		t.Fatalf("point memo unused after a search campaign: %+v", stz.PointMemo)
	}
	coldHits := stz.PointMemo.Hits

	// Re-POST: the settled campaign re-executes, this time through the
	// warm memo, and must reproduce the bytes exactly.
	st2, _ := post(t, ts.URL, searchRequest)
	st2 = waitState(t, ts.URL, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("re-run campaign %s: %s", st2.State, st2.Error)
	}
	second := result(t, ts.URL, st2.ID)
	if string(first) != string(second) {
		t.Fatalf("memo-warm re-run differs:\n%s\n%s", first, second)
	}
	if err := getJSON(ts.URL+"/v1/statz", &stz); err != nil {
		t.Fatal(err)
	}
	if stz.PointMemo.Hits <= coldHits {
		t.Fatalf("warm re-run did not hit the memo (hits %d -> %d)", coldHits, stz.PointMemo.Hits)
	}
}

// TestSearchRequestValidation rejects malformed search blocks at
// admission time.
func TestSearchRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"kind":"dse_sweep","run":{},"sweep":{"eprs":[5],"ranks":[8],"scenarios":["l1"],"timesteps":5,"mc_runs":1,"search":{"budget":0}}}`,
		`{"kind":"dse_sweep","run":{},"sweep":{"eprs":[5],"ranks":[8],"scenarios":["l1"],"timesteps":5,"mc_runs":1,"search":{"budget":1.5}}}`,
		`{"kind":"dse_sweep","run":{},"sweep":{"eprs":[5],"ranks":[8],"scenarios":["l1"],"timesteps":5,"mc_runs":1,"search":{"budget":0.5,"round_size":-1}}}`,
	} {
		_, resp := post(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad search block admitted (%d): %s", resp.StatusCode, body)
		}
	}
}

// TestSearchNotSharded pins the distribution boundary: a searched
// sweep has no static index space, so the shard executor refuses it as
// a bad request rather than executing nonsense.
func TestSearchNotSharded(t *testing.T) {
	x := NewShardExecutor(ExecConfig{Workers: 1})
	_, err := x.ExecShard("", []byte(searchRequest), 0, 1)
	if err == nil || !IsBadRequest(err) {
		t.Fatalf("sharded search: err = %v, want bad request", err)
	}
}

// TestSearchSpecCanonicalization pins the identity contract: the
// search block participates in the campaign hash, so the same grid
// with and without search are distinct campaigns.
func TestSearchSpecCanonicalization(t *testing.T) {
	plain := `{"kind":"dse_sweep","run":{},"sweep":{"eprs":[5],"ranks":[8],"scenarios":["l1"],"timesteps":5,"mc_runs":1}}`
	searched := `{"kind":"dse_sweep","run":{},"sweep":{"eprs":[5],"ranks":[8],"scenarios":["l1"],"timesteps":5,"mc_runs":1,"search":{"budget":0.5}}}`
	idPlain, _, _, err := HashRequest([]byte(plain))
	if err != nil {
		t.Fatal(err)
	}
	idSearched, _, _, err := HashRequest([]byte(searched))
	if err != nil {
		t.Fatal(err)
	}
	if idPlain == idSearched {
		t.Fatal("search block does not canonicalize into the campaign identity")
	}
}

// TestConfigMemoShared proves an injected memo is shared between a
// server and a shard executor built from it — the cross-process
// deployment shape where besst-serve and a worker share one journal.
func TestConfigMemoShared(t *testing.T) {
	memo := dse.NewMemo(4)
	memo.Store("k", 1.0)
	x := NewShardExecutor(ExecConfig{Workers: 1, Memo: memo})
	if st := x.MemoStatz(); st.Entries != 1 {
		t.Fatalf("executor memo stats %+v, want the injected memo", st)
	}
}

// TestMemoBundleSharedWithCLI proves one memo serves both tools: a
// memo warmed the way besst-dse -search warms it (PrepareSweep,
// AttachMemo with MemoBundle, Search) must answer every point of the
// equivalent dse_sweep search request from a server holding it.
func TestMemoBundleSharedWithCLI(t *testing.T) {
	spec := ModelSpec{Method: "interp", Samples: 2, Seed: 1}
	em := groundtruth.NewQuartz()
	models, _ := workflow.DevelopLuleshQuartz(em, spec.Samples, workflow.Interpolation, spec.Seed)
	cfg := dse.NewSweepConfig(
		dse.WithEPRs(5, 6, 7, 8),
		dse.WithRanks(8, 27),
		dse.WithScenarios(lulesh.ScenarioNoFT, lulesh.ScenarioL1),
		dse.WithTimesteps(10),
		dse.WithMCRuns(2),
		dse.WithSeed(7),
	)
	memo := dse.NewMemo(0)
	prepared := dse.PrepareSweep(models, em.M, em.Cost.Config.NodeSize, cfg)
	prepared.AttachMemo(memo, MemoBundle(spec))
	if _, err := prepared.Search(dse.SearchConfig{Budget: 0.5, RoundSize: 2}); err != nil {
		t.Fatal(err)
	}
	warm := memo.Stats()

	_, ts := newTestServer(t, Config{Workers: 2, Memo: memo})
	st, _ := post(t, ts.URL, searchRequest)
	if st = waitState(t, ts.URL, st.ID); st.State != StateDone {
		t.Fatalf("campaign %s: %s", st.State, st.Error)
	}
	got := memo.Stats()
	if got.Misses != warm.Misses || got.Hits <= warm.Hits {
		t.Fatalf("served search missed the CLI-warmed memo: stats %+v after warming, %+v after serving", warm, got)
	}
}
