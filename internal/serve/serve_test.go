package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mcRequest is the Monte Carlo request the identity tests share: seed
// unpinned, so the master seed is derived from the request hash and
// byte-reproducibility covers the derivation path too.
const mcRequest = `{
  "schema_version": 1,
  "kind": "monte_carlo",
  "trials": 6,
  "run": {"mode": "direct", "per_rank_noise": true},
  "app": {"epr": 4, "ranks": 8, "steps": 10, "scenario": "l1l2", "period": 5},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`

const sweepRequest = `{
  "schema_version": 1,
  "kind": "dse_sweep",
  "run": {},
  "sweep": {"eprs": [5, 6], "ranks": [8, 27], "scenarios": ["noft", "l1"], "timesteps": 10, "mc_runs": 2},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`

// newTestServer boots a server plus an httptest front end and tears
// both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	return srv, ts
}

// post submits a campaign request and decodes the response document.
func post(t *testing.T, base, body string) (CampaignStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("POST body: %v", err)
	}
	var st CampaignStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode POST response %q: %v", raw, err)
		}
	}
	return st, resp
}

// status fetches one status document.
func status(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitState polls until the campaign reaches a settled state and
// returns it.
func waitState(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		st := status(t, base, id)
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s after 90s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// result fetches the result body.
func result(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// runToResult posts, waits for done, and fetches the result body.
func runToResult(t *testing.T, base, body string) []byte {
	t.Helper()
	st, resp := post(t, base, body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	final := waitState(t, base, st.ID)
	if final.State != StateDone {
		t.Fatalf("campaign %s settled as %s: %s", st.ID, final.State, final.Error)
	}
	return result(t, base, st.ID)
}

func statz(t *testing.T, base string) Statz {
	t.Helper()
	resp, err := http.Get(base + "/v1/statz")
	if err != nil {
		t.Fatalf("GET statz: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statz: %v", err)
	}
	return st
}

// TestByteIdenticalAcrossWorkersAndCache is the core service
// invariant: the same request body produces byte-identical result
// documents at 1 and 8 workers, cold cache and warm.
func TestByteIdenticalAcrossWorkersAndCache(t *testing.T) {
	for _, body := range []string{mcRequest, sweepRequest} {
		_, ts1 := newTestServer(t, Config{Workers: 1})
		_, ts8 := newTestServer(t, Config{Workers: 8})

		cold := runToResult(t, ts1.URL, body)
		warm := runToResult(t, ts1.URL, body) // re-post: warm compile cache
		wide := runToResult(t, ts8.URL, body)

		if !bytes.Equal(cold, warm) {
			t.Errorf("cold and warm results differ:\n%s\nvs\n%s", cold, warm)
		}
		if !bytes.Equal(cold, wide) {
			t.Errorf("1-worker and 8-worker results differ:\n%s\nvs\n%s", cold, wide)
		}
		st := statz(t, ts1.URL)
		if st.Cache.Hits == 0 {
			t.Errorf("warm re-post did not hit the compile cache: %+v", st.Cache)
		}
	}
}

// TestEquivalentSpellingsShareOneCampaign proves the canonical-hash fix
// end to end: a permuted, float-spelled, whitespace-mangled version of
// the same request maps to the same campaign ID and compile cache
// entries.
func TestEquivalentSpellingsShareOneCampaign(t *testing.T) {
	respelled := `{
  "model": {"samples": 2.0, "seed": 1, "method": "interp"},
  "app": {"period": 5, "scenario": "l1l2", "steps": 10.0, "ranks": 8, "epr": 4},
  "run": {"per_rank_noise": true, "mode": "direct"},
  "trials": 6e0,
  "kind": "monte_carlo",
  "schema_version": 1
}`
	_, ts := newTestServer(t, Config{Workers: 2})
	first := runToResult(t, ts.URL, mcRequest)
	st, _ := post(t, ts.URL, respelled)
	final := waitState(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("respelled campaign settled as %s: %s", final.State, final.Error)
	}
	second := result(t, ts.URL, st.ID)
	if !bytes.Equal(first, second) {
		t.Fatalf("equivalent spellings produced different results")
	}
	sz := statz(t, ts.URL)
	if sz.Cache.Misses != 2 { // one model artifact + one compiled app — ever
		t.Fatalf("equivalent spellings compiled twice: %+v", sz.Cache)
	}
	if len(sz.Campaigns) != 1 || sz.Campaigns[StateDone] != 1 {
		t.Fatalf("equivalent spellings created distinct campaigns: %+v", sz.Campaigns)
	}
}

// TestJoinInFlightCampaign checks that a duplicate POST while the
// campaign is queued or running joins it instead of re-admitting.
func TestJoinInFlightCampaign(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	srv.trialPause = 20 * time.Millisecond

	st1, resp1 := post(t, ts.URL, mcRequest)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST status %d, want 202", resp1.StatusCode)
	}
	st2, resp2 := post(t, ts.URL, mcRequest)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate POST status %d, want 200 (joined)", resp2.StatusCode)
	}
	if st1.ID != st2.ID {
		t.Fatalf("duplicate POST got a different ID: %s vs %s", st1.ID, st2.ID)
	}
	if got := waitState(t, ts.URL, st1.ID); got.State != StateDone {
		t.Fatalf("campaign settled as %s: %s", got.State, got.Error)
	}
	if sz := statz(t, ts.URL); sz.Completed != 1 {
		t.Fatalf("joined POST executed a second campaign: completed=%d", sz.Completed)
	}
}

// TestQueueFullBackpressure fills the admission queue and expects 429
// with a Retry-After hint, counted in /v1/statz.
func TestQueueFullBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxActive: 1, MaxPerTenant: 1, MaxQueued: 1})
	srv.trialPause = 50 * time.Millisecond

	// Three distinct campaigns (pinned seeds differ): first runs, second
	// queues, third must bounce.
	seedReq := func(seed string) string {
		return strings.Replace(mcRequest, `"run": {"mode": "direct", "per_rank_noise": true}`,
			`"run": {"mode": "direct", "per_rank_noise": true, "seed": `+seed+`}`, 1)
	}
	_, r1 := post(t, ts.URL, seedReq("11"))
	_, r2 := post(t, ts.URL, seedReq("12"))
	_, r3 := post(t, ts.URL, seedReq("13"))
	if r1.StatusCode != http.StatusAccepted || r2.StatusCode != http.StatusAccepted {
		t.Fatalf("setup POSTs got %d, %d; want 202, 202", r1.StatusCode, r2.StatusCode)
	}
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST got %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("429 response is missing Retry-After")
	}
	if sz := statz(t, ts.URL); sz.Rejected != 1 {
		t.Fatalf("statz rejected = %d, want 1", sz.Rejected)
	}
}

// TestTenantFairness floods tenant A and checks tenant B is not
// head-of-line blocked behind A's queued work.
func TestTenantFairness(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxActive: 2, MaxPerTenant: 1, MaxQueued: 8})
	srv.trialPause = 30 * time.Millisecond

	tenantReq := func(tenant, seed string) string {
		return strings.Replace(
			strings.Replace(mcRequest, `"kind": "monte_carlo",`, `"kind": "monte_carlo", "tenant": "`+tenant+`",`, 1),
			`"run": {"mode": "direct", "per_rank_noise": true}`,
			`"run": {"mode": "direct", "per_rank_noise": true, "seed": `+seed+`}`, 1)
	}
	a1, _ := post(t, ts.URL, tenantReq("a", "21"))
	a2, _ := post(t, ts.URL, tenantReq("a", "22"))
	b1, _ := post(t, ts.URL, tenantReq("b", "23"))

	// b's first campaign must start even though a's second was queued
	// earlier; a's second must still be queued while a1 runs.
	deadline := time.Now().Add(30 * time.Second)
	for {
		stA1, stA2, stB1 := status(t, ts.URL, a1.ID), status(t, ts.URL, a2.ID), status(t, ts.URL, b1.ID)
		if stB1.State == StateRunning || stB1.State == StateDone {
			if stA1.State == StateRunning && stA2.State != StateQueued {
				t.Fatalf("tenant a ran two campaigns concurrently: a1=%s a2=%s", stA1.State, stA2.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant b head-of-line blocked: a1=%s a2=%s b1=%s", stA1.State, stA2.State, stB1.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range []string{a1.ID, a2.ID, b1.ID} {
		if st := waitState(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("campaign %s settled as %s: %s", id, st.State, st.Error)
		}
	}
}

// TestDrainCheckpointsAndResumes is the graceful-shutdown contract:
// draining mid-campaign checkpoints finished trials, the campaign
// reports interrupted, and re-posting the identical request against a
// fresh server on the same state directory resumes from the journal and
// produces the byte-identical result an uninterrupted server yields.
func TestDrainCheckpointsAndResumes(t *testing.T) {
	pinned := strings.Replace(mcRequest, `"trials": 6`, `"trials": 12`, 1)
	pinned = strings.Replace(pinned, `"run": {"mode": "direct", "per_rank_noise": true}`,
		`"run": {"mode": "direct", "per_rank_noise": true, "workers": 1}`, 1)

	// Reference: uninterrupted run, no state dir.
	_, refTS := newTestServer(t, Config{})
	want := runToResult(t, refTS.URL, pinned)

	state := t.TempDir()
	srv1 := NewServer(Config{StateDir: state})
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	srv1.trialPause = 20 * time.Millisecond

	st, _ := post(t, ts1.URL, pinned)
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := status(t, ts1.URL, st.ID)
		if cur.Progress.TrialsDone >= 2 {
			break
		}
		if cur.State == StateDone || cur.State == StateFailed {
			t.Fatalf("campaign finished before the drain could interrupt it (%s)", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress before drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv1.Drain() // the SIGTERM path minus the signal plumbing

	interrupted := status(t, ts1.URL, st.ID)
	if interrupted.State != StateInterrupted {
		t.Fatalf("drained campaign is %s, want interrupted", interrupted.State)
	}
	journals, err := filepath.Glob(filepath.Join(state, "CKPT_serve_*.jsonl"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("journal glob: %v, %v", journals, err)
	}

	// Fresh server, same state dir: the identical request resumes.
	_, ts2 := newTestServer(t, Config{StateDir: state})
	st2, _ := post(t, ts2.URL, pinned)
	if st2.ID != st.ID {
		t.Fatalf("resume got a different campaign ID: %s vs %s", st2.ID, st.ID)
	}
	final := waitState(t, ts2.URL, st2.ID)
	if final.State != StateDone {
		t.Fatalf("resumed campaign settled as %s: %s", final.State, final.Error)
	}
	if final.Progress.Replayed == 0 {
		t.Fatal("resumed campaign replayed nothing from the journal")
	}
	got := result(t, ts2.URL, st2.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from the uninterrupted reference:\n%s\nvs\n%s", got, want)
	}
}

// TestWatchStreamsStatus exercises the NDJSON watch mode.
func TestWatchStreamsStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, _ := post(t, ts.URL, mcRequest)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatalf("GET watch: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	var last CampaignStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("watch line %d: %v", lines, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("watch stream: %v", err)
	}
	if lines == 0 || last.State != StateDone {
		t.Fatalf("watch ended after %d lines in state %q, want done", lines, last.State)
	}
}

// TestRejectsMalformedRequests covers the 400 paths.
func TestRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ name, body string }{
		{"invalid JSON", `{`},
		{"trailing document", `{"kind":"single"}{"kind":"single"}`},
		{"unknown field", `{"kind":"monte_carlo","trials":2,"frobnicate":1,"run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"}}`},
		{"missing kind", `{"run":{}}`},
		{"unknown kind", `{"kind":"warp","run":{}}`},
		{"bad schema version", `{"schema_version":99,"kind":"single","run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"}}`},
		{"bad mode", `{"kind":"single","run":{"mode":"warp"},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"}}`},
		{"mc without trials", `{"kind":"monte_carlo","run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"}}`},
		{"single with trials", `{"kind":"single","trials":3,"run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"}}`},
		{"non-cube ranks", `{"kind":"single","run":{},"app":{"epr":4,"ranks":10,"steps":5,"scenario":"l1"}}`},
		{"bad scenario", `{"kind":"single","run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l9"}}`},
		{"bad model method", `{"kind":"single","run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"},"model":{"method":"magic"}}`},
		{"sweep without grid", `{"kind":"dse_sweep","run":{}}`},
		{"sweep bad ranks order", `{"kind":"dse_sweep","run":{},"sweep":{"eprs":[5],"ranks":[27,8],"scenarios":["l1"],"timesteps":5,"mc_runs":1}}`},
		{"sweep with app", `{"kind":"dse_sweep","run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"},"sweep":{"eprs":[5],"ranks":[8],"scenarios":["l1"],"timesteps":5,"mc_runs":1}}`},
	}
	for _, tc := range cases {
		_, resp := post(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestStatusAndResultNotFound covers lookups of unknown campaigns and
// premature result fetches.
func TestStatusAndResultNotFound(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	srv.trialPause = 20 * time.Millisecond

	resp, err := http.Get(ts.URL + "/v1/campaigns/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign status %d, want 404", resp.StatusCode)
	}

	st, _ := post(t, ts.URL, mcRequest)
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("premature result fetch status %d, want 409", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID)
}

// fakeBackend stands in for the distributed coordinator: it computes
// payloads through an in-process ShardExecutor and reports a scripted
// divergence, so the backend execution path and divergence surfacing
// are testable without processes.
type fakeBackend struct {
	ex          *ShardExecutor
	divergences []string
}

func (b *fakeBackend) Run(request []byte, n int, cancel <-chan struct{}, col BackendCollector) ([]json.RawMessage, BackendReport, error) {
	p, err := ParsePlan(request)
	if err != nil {
		return nil, BackendReport{}, err
	}
	payloads, err := b.ex.ExecShard(p.ID(), request, 0, n)
	if err != nil {
		return nil, BackendReport{}, err
	}
	if col != nil {
		col.ShardDone(0, 0, n)
		for range b.divergences {
			col.ShardDivergence(0, 2, 3)
		}
	}
	return payloads, BackendReport{Shards: 1, Replicas: 3, Divergences: b.divergences}, nil
}

// TestBackendExecutionByteIdentical runs monte_carlo and dse_sweep
// campaigns through a Config.Backend and requires the result documents
// to match in-process execution exactly, with the backend's divergence
// notes surfaced on the settled status.
func TestBackendExecutionByteIdentical(t *testing.T) {
	_, local := newTestServer(t, Config{Workers: 2})
	be := &fakeBackend{
		ex:          NewShardExecutor(ExecConfig{Workers: 2, CacheCap: 4}),
		divergences: []string{"shard 0 [0,3): 2/3 replicas agreed on journal abc; rejected minority journals: [def]"},
	}
	_, backed := newTestServer(t, Config{Backend: be})

	for _, body := range []string{mcRequest, sweepRequest} {
		want := runToResult(t, local.URL, body)
		st, _ := post(t, backed.URL, body)
		final := waitState(t, backed.URL, st.ID)
		if final.State != StateDone {
			t.Fatalf("backend campaign settled as %s: %s", final.State, final.Error)
		}
		if len(final.Divergences) != 1 || !strings.Contains(final.Divergences[0], "2/3 replicas agreed") {
			t.Fatalf("backend divergences not surfaced on status: %v", final.Divergences)
		}
		got := result(t, backed.URL, st.ID)
		if !bytes.Equal(got, want) {
			t.Fatalf("backend result diverged from in-process run (%d vs %d bytes)", len(got), len(want))
		}
	}
}

// TestCampaignTTLEviction lets a settled campaign age past its TTL and
// expects the registry to drop it (status 404) with the eviction
// counted in /v1/statz.
func TestCampaignTTLEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CampaignTTL: 30 * time.Millisecond})
	st, resp := post(t, ts.URL, mcRequest)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if final := waitState(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("campaign settled as %s: %s", final.State, final.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign not evicted 10s past its 30ms TTL (status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sz := statz(t, ts.URL); sz.Evicted == 0 {
		t.Fatalf("eviction not counted: %+v", sz)
	}
}

// TestHealthzReflectsDrain checks liveness before and after Drain, and
// that a draining server refuses new work with 503.
func TestHealthzReflectsDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var h Healthz
	if err := getJSON(ts.URL+"/v1/healthz", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("healthz before drain: %+v", h)
	}
	srv.Drain()
	if err := getJSON(ts.URL+"/v1/healthz", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("healthz after drain: %+v", h)
	}
	_, resp := post(t, ts.URL, mcRequest)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted work: status %d, want 503", resp.StatusCode)
	}
}

// getJSON fetches one JSON document (test helper; the production
// client lives in internal/serveclient).
func getJSON(url string, doc any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, doc)
}
