package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"besst/internal/serve"
	"besst/internal/serveclient"
)

// The dist tests drive the coordinator against scripted executors
// (forged journals, stragglers) and against the real shard executor
// and besst-worker binary (the byte-identity gate).

// testRequest is a small valid monte_carlo campaign; the scripted
// executors never run it, but the coordinator validates every request
// through serve.ParsePlan.
const testRequest = `{
  "schema_version": 1,
  "kind": "monte_carlo",
  "trials": 6,
  "run": {"mode": "direct", "per_rank_noise": true, "seed": 3},
  "app": {"epr": 4, "ranks": 8, "steps": 10, "scenario": "l1", "period": 5},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`

// execFunc adapts a function to Executor.
type execFunc func(id string, req []byte, lo, hi int) ([]json.RawMessage, error)

func (f execFunc) ExecShard(id string, req []byte, lo, hi int) ([]json.RawMessage, error) {
	return f(id, req, lo, hi)
}

// honestPayloads is the scripted ground truth: unit i -> {"u":i}.
func honestPayloads(lo, hi int) []json.RawMessage {
	out := make([]json.RawMessage, hi-lo)
	for k := range out {
		out[k] = json.RawMessage(fmt.Sprintf(`{"u":%d}`, lo+k))
	}
	return out
}

func honestExec() Executor {
	return execFunc(func(_ string, _ []byte, lo, hi int) ([]json.RawMessage, error) {
		return honestPayloads(lo, hi), nil
	})
}

// startWorker serves a WorkerHandler over httptest and returns its URL.
func startWorker(t *testing.T, cfg WorkerConfig) string {
	t.Helper()
	ts := httptest.NewServer(WorkerHandler(cfg))
	t.Cleanup(ts.Close)
	return ts.URL
}

// recCollector records progress events for assertions.
type recCollector struct {
	mu          sync.Mutex
	done        int   // guarded by mu
	retries     int   // guarded by mu
	divergences int   // guarded by mu
	workersDown []int // guarded by mu
}

func (r *recCollector) ShardDone(int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
}
func (r *recCollector) ShardRetry(int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retries++
}
func (r *recCollector) ShardDivergence(int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.divergences++
}
func (r *recCollector) WorkerDown(w int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workersDown = append(r.workersDown, w)
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

// TestForgedDivergenceMajorityWins runs one shard on three replicas
// where one worker forges its journal: the two honest replicas form a
// strict majority, the forged minority is rejected, and the
// divergence is surfaced in the report and the collector — accepted,
// never silent.
func TestForgedDivergenceMajorityWins(t *testing.T) {
	forged := execFunc(func(_ string, _ []byte, lo, hi int) ([]json.RawMessage, error) {
		out := make([]json.RawMessage, hi-lo)
		for k := range out {
			out[k] = json.RawMessage(fmt.Sprintf(`{"u":%d,"forged":true}`, lo+k))
		}
		return out, nil
	})
	urls := []string{
		startWorker(t, WorkerConfig{Executor: honestExec()}),
		startWorker(t, WorkerConfig{Executor: honestExec()}),
		startWorker(t, WorkerConfig{Executor: forged}),
	}
	col := &recCollector{}
	c := newCoordinator(t, Config{Workers: urls, Shards: 1, Replicas: 3})
	payloads, rep, err := c.Run([]byte(testRequest), 0, nil, col)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, p := range payloads {
		if want := fmt.Sprintf(`{"u":%d}`, i); string(p) != want {
			t.Fatalf("unit %d: forged journal won: %s", i, p)
		}
	}
	if len(rep.Divergences) != 1 || !strings.Contains(rep.Divergences[0], "2/3 replicas agreed") {
		t.Fatalf("divergences not surfaced: %v", rep.Divergences)
	}
	if col.divergences != 1 {
		t.Fatalf("collector saw %d divergences, want 1", col.divergences)
	}
}

// TestNoMajorityFailsWithDivergenceError runs two replicas that
// disagree: 1-vs-1 is no strict majority, so the campaign must fail
// with a typed DivergenceError rather than guess.
func TestNoMajorityFailsWithDivergenceError(t *testing.T) {
	variant := func(tag string) Executor {
		return execFunc(func(_ string, _ []byte, lo, hi int) ([]json.RawMessage, error) {
			out := make([]json.RawMessage, hi-lo)
			for k := range out {
				out[k] = json.RawMessage(fmt.Sprintf(`{"u":%d,"v":%q}`, lo+k, tag))
			}
			return out, nil
		})
	}
	urls := []string{
		startWorker(t, WorkerConfig{Executor: variant("a")}),
		startWorker(t, WorkerConfig{Executor: variant("b")}),
	}
	c := newCoordinator(t, Config{Workers: urls, Shards: 1, Replicas: 2})
	_, _, err := c.Run([]byte(testRequest), 0, nil, nil)
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want DivergenceError, got %v", err)
	}
	if div.Returned != 2 || len(div.Variants) != 2 {
		t.Fatalf("unexpected divergence: %+v", div)
	}
}

// TestStragglerTimeoutReassigned points the first attempt at a worker
// that hangs forever: the shard deadline must fire, the straggler be
// marked down, and the shard reassigned to the survivor.
func TestStragglerTimeoutReassigned(t *testing.T) {
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the test ends; the coordinator abandons the call long before
	}))
	t.Cleanup(hang.Close)
	t.Cleanup(func() { close(release) }) // LIFO: unblock handlers before Close waits on them
	urls := []string{
		startWorker(t, WorkerConfig{Executor: honestExec()}),
		hang.URL, // index 1: the first pick for shard 0 replica 0
	}
	col := &recCollector{}
	c := newCoordinator(t, Config{
		Workers:      urls,
		Shards:       1,
		Replicas:     1,
		ShardTimeout: 100 * time.Millisecond,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
	})
	payloads, rep, err := c.Run([]byte(testRequest), 0, nil, col)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(payloads) != 6 || string(payloads[0]) != `{"u":0}` {
		t.Fatalf("payloads after reassignment: %v", payloads)
	}
	if rep.Retries == 0 || rep.WorkersLost != 1 {
		t.Fatalf("straggler loss unreported: %+v", rep)
	}
	if len(col.workersDown) == 0 || col.workersDown[0] != 1 {
		t.Fatalf("collector workersDown: %v", col.workersDown)
	}
}

// TestBadRequestIsFatalNoRetry submits an unshardable (single-kind)
// campaign: the worker answers 400 and the coordinator must fail
// immediately instead of burning retries on a request that can never
// succeed.
func TestBadRequestIsFatalNoRetry(t *testing.T) {
	ex := serve.NewShardExecutor(serve.ExecConfig{Workers: 1, CacheCap: 2})
	urls := []string{startWorker(t, WorkerConfig{Executor: ex})}
	col := &recCollector{}
	c := newCoordinator(t, Config{Workers: urls, Shards: 1, Replicas: 1})
	single := strings.Replace(testRequest, `"kind": "monte_carlo",`, `"kind": "single",`, 1)
	single = strings.Replace(single, `"trials": 6,`, ``, 1)
	_, rep, err := c.Run([]byte(single), 0, nil, col)
	if err == nil || !strings.Contains(err.Error(), "not sharded") {
		t.Fatalf("want not-sharded rejection, got %v", err)
	}
	if rep.Retries != 0 || col.retries != 0 {
		t.Fatalf("fatal 400 was retried: %+v", rep)
	}
}

// TestWorkerAuth checks the worker's bearer-token gate: wrong token
// 401s shard posts, healthz stays open for heartbeats.
func TestWorkerAuth(t *testing.T) {
	url := startWorker(t, WorkerConfig{AuthToken: "s3cret", Executor: honestExec()})
	c := newCoordinator(t, Config{Workers: []string{url}, Shards: 1, Replicas: 1, AuthToken: "wrong"})
	_, _, err := c.Run([]byte(testRequest), 0, nil, nil)
	var ae *serveclient.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnauthorized {
		t.Fatalf("want 401, got %v", err)
	}
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unauthenticated healthz status %d", resp.StatusCode)
	}
	ok := newCoordinator(t, Config{Workers: []string{url}, Shards: 2, Replicas: 1, AuthToken: "s3cret"})
	if _, _, err := ok.Run([]byte(testRequest), 0, nil, nil); err != nil {
		t.Fatalf("authorized run: %v", err)
	}
}

// The distributed layer's central claim — sharding, replication, and
// worker loss never change result bytes — is gated on the real
// besst-worker binary by two tests sharing one fixture:
// TestByteIdenticalAcrossGeometries (every shards × replicas geometry
// over a mixed fleet) and TestSIGKILLReplicaMidShardByteIdentical (a
// besst-worker armed with -chaos-kill 1 dies mid-shard). Both compare
// every merged document with the single-process reference, which must
// equal the committed serve golden.

// gateFixture is what both byte-identity tests share: the quickstart
// request, the in-process executor, its single-process reference
// document, and a freshly built besst-worker binary.
type gateFixture struct {
	request []byte
	ex      *serve.ShardExecutor
	want    []byte
	exe     string
}

// newGateFixture runs the quickstart campaign in process, checks the
// result against results/GOLDEN_serve_smoke.json, and builds
// besst/cmd/besst-worker with the toolchain under runtime.GOROOT()
// into t.TempDir().
func newGateFixture(t *testing.T) *gateFixture {
	t.Helper()
	request := []byte(serveclient.QuickstartRequest)
	p, err := serve.ParsePlan(request)
	if err != nil {
		t.Fatal(err)
	}
	ex := serve.NewShardExecutor(serve.ExecConfig{Workers: 2, CacheCap: 4})
	units, err := ex.ExecShard(p.ID(), request, 0, p.Units())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want, err := p.Assemble(units)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../results/GOLDEN_serve_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, golden) {
		t.Fatalf("single-process reference diverged from the serve golden (%d vs %d bytes)", len(want), len(golden))
	}
	exe := filepath.Join(t.TempDir(), "besst-worker")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", exe, "besst/cmd/besst-worker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build besst-worker: %v\n%s", err, out)
	}
	return &gateFixture{request: request, ex: ex, want: want, exe: exe}
}

// run merges the request over workers at one geometry, with the gate's
// coordinator settings, and requires the reference bytes and no
// divergences.
func (f *gateFixture) run(t *testing.T, workers []string, shards, replicas int) serve.BackendReport {
	t.Helper()
	c := newCoordinator(t, Config{
		Workers:      workers,
		Shards:       shards,
		Replicas:     replicas,
		AuthToken:    gateToken,
		ShardTimeout: time.Minute,
		Heartbeat:    150 * time.Millisecond,
		MaxAttempts:  6,
		BaseBackoff:  20 * time.Millisecond,
	})
	doc, rep, err := RunRequest(c, f.request, nil, nil)
	if err != nil {
		t.Fatalf("shards=%d replicas=%d: %v", shards, replicas, err)
	}
	if !bytes.Equal(doc, f.want) {
		t.Fatalf("shards=%d replicas=%d: merged doc diverged (%d vs %d bytes)", shards, replicas, len(doc), len(f.want))
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("shards=%d replicas=%d: unexpected divergences %v", shards, replicas, rep.Divergences)
	}
	return rep
}

// TestByteIdenticalAcrossGeometries runs the quickstart campaign over
// one in-process worker (so -race sees the worker side) and two
// besst-worker processes at every combination of shards {1, 4} ×
// replicas {1, 2, 3}; every merge must equal the reference.
func TestByteIdenticalAcrossGeometries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds besst-worker and spawns worker processes")
	}
	f := newGateFixture(t)
	urls := []string{
		startWorker(t, WorkerConfig{AuthToken: gateToken, Executor: f.ex}),
		spawnWorker(t, f.exe).url,
		spawnWorker(t, f.exe).url,
	}
	for _, shards := range []int{1, 4} {
		for _, replicas := range []int{1, 2, 3} {
			f.run(t, urls, shards, replicas)
		}
	}
}

// TestSIGKILLReplicaMidShardByteIdentical puts a besst-worker armed
// with -chaos-kill 1, which SIGKILLs itself the first time it executes
// a unit, between an in-process worker and a plain besst-worker. The
// merge must still equal the reference, the coordinator must report
// the lost worker and its retries, and the chaos process must have
// died by its own injector.
func TestSIGKILLReplicaMidShardByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds besst-worker and spawns worker processes")
	}
	f := newGateFixture(t)
	// The chaos worker sits at index 1, the first pick of shard 0
	// replica 0, so it is contacted while alive and dies mid-shard.
	chaos := spawnWorker(t, f.exe, "-chaos-kill", "1", "-chaos-seed", "42")
	urls := []string{
		startWorker(t, WorkerConfig{AuthToken: gateToken, Executor: f.ex}),
		chaos.url,
		spawnWorker(t, f.exe).url,
	}
	rep := f.run(t, urls, 2, 2)
	if rep.WorkersLost == 0 || rep.Retries == 0 {
		t.Fatalf("the chaos worker was never lost (lost=%d, retries=%d): worker-loss tolerance went unexercised", rep.WorkersLost, rep.Retries)
	}
	// The chaos worker must be dead by its own injector, not by the
	// test's cleanup.
	select {
	case <-chaos.exited:
		if chaos.err == nil {
			t.Fatal("chaos worker exited cleanly; the SIGKILL never fired")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("chaos worker still running; the SIGKILL never fired")
	}
}

// gateToken is the bearer token every worker of the gate's fleet
// requires.
const gateToken = "dist-gate"

// workerProc is one besst-worker subprocess.
type workerProc struct {
	url    string
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result; read only after exited closes
}

// spawnWorker starts the besst-worker binary exe on an ephemeral port
// with the gate's auth token plus extra args, parses the bound address
// from its first stdout line, and kills and reaps it at test cleanup.
func spawnWorker(t *testing.T, exe string, extra ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0", "-auth-token", gateToken}, extra...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start besst-worker: %v", err)
	}
	w := &workerProc{exited: make(chan struct{})}
	sc := bufio.NewScanner(stdout)
	announced := sc.Scan()
	go func() {
		w.err = cmd.Wait()
		close(w.exited)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-w.exited
	})
	if !announced {
		t.Fatalf("besst-worker exited before announcing its address: %v", sc.Err())
	}
	w.url = "http://" + strings.TrimPrefix(strings.TrimSpace(sc.Text()), "besst-worker listening on ")
	return w
}
