package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestClientRoundTrip drives submit → wait → result through the typed
// client and checks the result matches a second run byte-for-byte.
func TestClientRoundTrip(t *testing.T) {
	c := newClient(t, serve.Config{Workers: 2, CacheCap: 4})
	first, err := RunCampaign(c, []byte(QuickstartRequest), time.Minute)
	if err != nil {
		t.Fatalf("first run: %v", err)
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

// TestSmoke runs every smoke case — the quickstart (sans golden) and
// the surrogate search — so `go test` covers the same path
// `make serve-smoke` gates on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke boots a real listener")
	}
	var buf bytes.Buffer
	if err := Smoke(&buf, SmokeConfig{}); err != nil {
		t.Fatalf("Smoke: %v\n%s", err, buf.String())
	}
	for _, sc := range smokeCases {
		if !strings.Contains(buf.String(), "serve smoke "+sc.name+" OK") {
			t.Fatalf("smoke case %s did not report OK: %s", sc.name, buf.String())
		}
	}
}

// TestSmokeDSE runs the surrogate-search case of the smoke table on its
// own, so a search regression fails under its own name.
func TestSmokeDSE(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke boots a real listener")
	}
	for _, sc := range smokeCases {
		if sc.name != "search" {
			continue
		}
		var buf bytes.Buffer
		if err := sc.run(&buf, SmokeConfig{}); err != nil {
			t.Fatalf("search smoke: %v\n%s", err, buf.String())
		}
		if !strings.Contains(buf.String(), "serve smoke search OK") {
			t.Fatalf("smoke output: %s", buf.String())
		}
		return
	}
	t.Fatal("smoke table has no search case")
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
