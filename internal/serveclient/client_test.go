package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"besst/internal/serve"
)

// newClient boots a server plus an httptest front end and returns a
// typed client pointed at it.
func newClient(t *testing.T, cfg serve.Config) *Client {
	t.Helper()
	srv := serve.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	return New(ts.URL, cfg.AuthToken)
}

// update rewrites the quickstart golden from TestClientRoundTrip's cold
// result instead of diffing against it:
//
//	go test ./internal/serveclient -run TestClientRoundTrip -update
var update = flag.Bool("update", false, "rewrite "+quickstartGolden+" from the live quickstart result")

// quickstartGolden is the committed result document of QuickstartRequest.
// internal/dist diffs its sharded merges against the same file.
const quickstartGolden = "../../results/GOLDEN_serve_smoke.json"

// TestClientRoundTrip drives submit → wait → result through the typed
// client over real HTTP. The cold result must equal the committed
// golden, the warm re-post must reproduce it byte for byte, and that
// re-post must be served by the warm compile cache.
func TestClientRoundTrip(t *testing.T) {
	c := newClient(t, serve.Config{Workers: 2, CacheCap: 4})
	first, err := RunCampaign(c, []byte(QuickstartRequest), time.Minute)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if *update {
		if err := os.WriteFile(quickstartGolden, first, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	golden, err := os.ReadFile(quickstartGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(first, golden) {
		t.Fatalf("quickstart result diverged from %s (%d vs %d bytes); "+
			"if the change is intentional, regenerate with -update", quickstartGolden, len(first), len(golden))
	}
	second, err := RunCampaign(c, []byte(QuickstartRequest), time.Minute)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cold and warm results differ (%d vs %d bytes)", len(first), len(second))
	}
	st, err := c.Statz(context.Background())
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("warm re-post did not hit the compile cache: %+v", st.Cache)
	}
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestClientAPIError checks that a rejected request surfaces as a
// typed *APIError carrying the service's message.
func TestClientAPIError(t *testing.T) {
	c := newClient(t, serve.Config{})
	_, err := c.SubmitRaw(context.Background(), []byte(`{"kind": "nope"}`))
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != 400 || apiErr.Msg == "" {
		t.Fatalf("unexpected APIError: %+v", apiErr)
	}
	if _, err := c.Status(context.Background(), "no-such-campaign"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("status of unknown campaign: %v", err)
	}
}

// TestClientAuth checks bearer-token round-tripping: the wrong token
// answers 401 through the typed error, the right one works.
func TestClientAuth(t *testing.T) {
	c := newClient(t, serve.Config{AuthToken: "s3cret"})
	if _, err := RunCampaign(c, []byte(QuickstartRequest), time.Minute); err != nil {
		t.Fatalf("authorized run: %v", err)
	}
	bad := New(c.BaseURL, "wrong")
	_, err := bad.SubmitRaw(context.Background(), []byte(QuickstartRequest))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 401 {
		t.Fatalf("wrong token: want 401 APIError, got %v", err)
	}
	// healthz stays reachable without credentials for load balancers.
	if _, err := New(c.BaseURL, "").Healthz(context.Background()); err != nil {
		t.Fatalf("unauthenticated healthz: %v", err)
	}
}

// TestClientWatch streams status lines and expects the final one to be
// settled.
func TestClientWatch(t *testing.T) {
	c := newClient(t, serve.Config{Workers: 1})
	st, err := c.SubmitRaw(context.Background(), []byte(QuickstartRequest))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var last serve.CampaignStatus
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Watch(ctx, st.ID, func(s serve.CampaignStatus) error {
		last = s
		return nil
	}); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if last.State != serve.StateDone {
		t.Fatalf("watch ended on state %q: %s", last.State, last.Error)
	}
}

// TestWaitBackoff scripts a status endpoint that reports running N
// times before settling and asserts — without any real sleeping — that
// Wait makes exactly N+1 requests and that its inter-poll delays
// double from the initial interval up to the 2s cap.
func TestWaitBackoff(t *testing.T) {
	const running = 9
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		st := serve.CampaignStatus{SchemaVersion: serve.RequestSchemaVersion, ID: "c1", State: serve.StateRunning}
		if requests > running {
			st.State = serve.StateDone
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	}))
	defer ts.Close()

	var delays []time.Duration
	c := New(ts.URL, "")
	c.sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return ctx.Err()
	}
	st, err := c.Wait(context.Background(), "c1", 100*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("settled state = %q, want done", st.State)
	}
	if requests != running+1 {
		t.Fatalf("Wait made %d requests, want %d", requests, running+1)
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	}
	if len(delays) != len(want) {
		t.Fatalf("recorded %d delays (%v), want %d", len(delays), delays, len(want))
	}
	for i, d := range delays {
		if d != want[i] {
			t.Fatalf("delay[%d] = %v, want %v (all: %v)", i, d, want[i], delays)
		}
	}
}

// TestWaitContextCancel verifies a cancelled context aborts the wait
// between polls rather than spinning.
func TestWaitContextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := serve.CampaignStatus{SchemaVersion: serve.RequestSchemaVersion, ID: "c1", State: serve.StateRunning}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL, "")
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	if _, err := c.Wait(ctx, "c1", time.Millisecond); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
}

// readmeQuickstart matches the request body of the README's Quickstart
// curl: the single-quoted JSON after "-d".
var readmeQuickstart = regexp.MustCompile(`(?s)Quickstart.*?curl -s -X POST \S+ -d '([^']*)'`)

// TestReadmeQuickstartIsGoldenCampaign holds the README's Quickstart
// body to the campaign the golden pins: both must hash to one campaign
// ID, so the documented curl reproduces the committed result document.
func TestReadmeQuickstartIsGoldenCampaign(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := readmeQuickstart.FindSubmatch(readme)
	if m == nil {
		t.Fatal("README has no Quickstart curl body")
	}
	got, _, _, err := serve.HashRequest(m[1])
	if err != nil {
		t.Fatalf("README quickstart body: %v", err)
	}
	want, _, _, err := serve.HashRequest([]byte(QuickstartRequest))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("README quickstart is campaign %s, QuickstartRequest (the golden) is %s", got, want)
	}
}
