// Package serveclient is the typed Go client for the besst-serve /v1
// campaign API: submit, poll, watch, and fetch results without
// hand-rolling HTTP calls. The distributed coordinator (internal/dist)
// builds its worker transport on the same Client, so auth, error
// classification, and response decoding live in exactly one place.
package serveclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"besst/internal/serve"
)

// APIError is a non-2xx response decoded from the service's uniform
// error document (falling back to the raw body for non-JSON errors).
type APIError struct {
	Status int    // HTTP status code
	Msg    string // error document message or raw body
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serveclient: %d %s: %s", e.Status, http.StatusText(e.Status), e.Msg)
}

// Client talks to one besst-serve (or besst-worker) base URL.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Token, when non-empty, is sent as "Authorization: Bearer <Token>"
	// on every request.
	Token string
	// HTTPClient overrides the transport (nil: http.DefaultClient).
	// Per-request deadlines come from contexts, not from this client's
	// Timeout, so one Client serves both quick polls and long watches.
	HTTPClient *http.Client

	// sleep overrides Wait's inter-poll delay (nil: wall clock). Tests
	// inject a recorder so the backoff schedule is asserted without
	// real sleeps.
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a client for a base URL. token may be empty.
func New(baseURL, token string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), Token: token}
}

func (c *Client) httpc() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Do performs one API request and returns the response status and
// body. It is the transport primitive everything else builds on —
// exported so internal/dist's shard protocol can reuse the auth and
// base-URL handling verbatim. body may be nil for GETs.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("serveclient: build %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("serveclient: %s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("serveclient: read %s %s: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// doJSON performs a request, enforces a 2xx status, and decodes the
// response into doc (skipped when doc is nil).
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, doc any) error {
	status, out, err := c.Do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return toAPIError(status, out)
	}
	if doc == nil {
		return nil
	}
	if err := json.Unmarshal(out, doc); err != nil {
		return fmt.Errorf("serveclient: decode %s %s: %w", method, path, err)
	}
	return nil
}

// toAPIError shapes a non-2xx body into an *APIError.
func toAPIError(status int, body []byte) *APIError {
	var doc struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if err := json.Unmarshal(body, &doc); err == nil && doc.Error != "" {
		msg = doc.Error
	}
	return &APIError{Status: status, Msg: msg}
}

// Submit posts a typed campaign request and returns the admission (or
// joined in-flight) status.
func (c *Client) Submit(ctx context.Context, req serve.CampaignRequest) (serve.CampaignStatus, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return serve.CampaignStatus{}, fmt.Errorf("serveclient: marshal request: %w", err)
	}
	return c.SubmitRaw(ctx, raw)
}

// SubmitRaw posts raw request JSON — the form to use when the exact
// request bytes matter (they are canonicalized server-side, so
// spelling variants of one request share a campaign).
func (c *Client) SubmitRaw(ctx context.Context, raw []byte) (serve.CampaignStatus, error) {
	var st serve.CampaignStatus
	err := c.doJSON(ctx, http.MethodPost, "/v1/campaigns", raw, &st)
	return st, err
}

// Status fetches a campaign's current status.
func (c *Client) Status(ctx context.Context, id string) (serve.CampaignStatus, error) {
	var st serve.CampaignStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// Result fetches a done campaign's result document bytes verbatim —
// never re-encoded, because the bytes are the byte-reproducibility
// contract.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	status, out, err := c.Do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, toAPIError(status, out)
	}
	return out, nil
}

// waitMaxPoll caps Wait's exponential backoff: delays double from the
// caller's poll interval but never exceed this, so a long campaign is
// polled every couple of seconds rather than hammered at the initial
// rate — and never slower than that, so settling is noticed promptly.
const waitMaxPoll = 2 * time.Second

// Wait polls a campaign until it leaves queued/running and returns the
// settled status. poll <= 0 selects 20ms. The delay between polls
// doubles each round, capped at waitMaxPoll, so quick campaigns settle
// after a handful of requests and long ones don't flood the service.
// The context bounds the wait.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (serve.CampaignStatus, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	delay := poll
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			return st, nil
		}
		if err := c.waitSleep(ctx, delay); err != nil {
			return st, fmt.Errorf("serveclient: waiting for campaign %s: %w", id, err)
		}
		if delay < waitMaxPoll {
			delay *= 2
			if delay > waitMaxPoll {
				delay = waitMaxPoll
			}
		}
	}
}

// waitSleep blocks for d or until the context is done.
func (c *Client) waitSleep(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Watch streams a campaign's NDJSON status lines (?watch=1), calling
// fn for each. It returns when the campaign settles (the stream ends),
// fn returns an error, or the context is cancelled.
func (c *Client) Watch(ctx context.Context, id string, fn func(serve.CampaignStatus) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/campaigns/"+id+"?watch=1", nil)
	if err != nil {
		return fmt.Errorf("serveclient: build watch: %w", err)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return fmt.Errorf("serveclient: watch %s: %w", id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return toAPIError(resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st serve.CampaignStatus
		if err := json.Unmarshal(line, &st); err != nil {
			return fmt.Errorf("serveclient: decode watch line: %w", err)
		}
		if err := fn(st); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Statz fetches the service counters.
func (c *Client) Statz(ctx context.Context) (serve.Statz, error) {
	var st serve.Statz
	err := c.doJSON(ctx, http.MethodGet, "/v1/statz", nil, &st)
	return st, err
}

// Healthz fetches the liveness document.
func (c *Client) Healthz(ctx context.Context) (serve.Healthz, error) {
	var h serve.Healthz
	err := c.doJSON(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// QuickstartRequest is the README quickstart campaign: a small
// direct-mode Monte Carlo run whose result document is committed as
// results/GOLDEN_serve_smoke.json. Everything is pinned (seed included)
// so the bytes are stable. TestClientRoundTrip checks (and with
// -update rewrites) the golden over real HTTP; the distributed
// byte-identity tests in internal/dist diff the sharded merge against
// the same golden.
const QuickstartRequest = `{
  "schema_version": 1,
  "kind": "monte_carlo",
  "tenant": "smoke",
  "trials": 5,
  "run": {"schema_version": 1, "mode": "direct", "monte_carlo": true, "per_rank_noise": true, "seed": 7},
  "app": {"epr": 5, "ranks": 8, "steps": 20, "scenario": "l1", "period": 10},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`

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
