package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"besst/internal/serve"
)

// settleService is a stand-in for besst-serve whose one campaign
// settles a fixed time after it is posted — between the poll steps of
// serveclient.Wait (0, 20, 60 ms, ...).
func settleService(t *testing.T, settle time.Duration) *httptest.Server {
	var mu sync.Mutex
	var posted time.Time
	settleAt := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return posted.Add(settle)
	}
	status := func(state string) serve.CampaignStatus {
		return serve.CampaignStatus{SchemaVersion: 1, ID: "c0ffee", Kind: serve.KindMonteCarlo, State: state}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posted = time.Now()
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(status(serve.StateRunning))
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		if r.URL.Query().Get("watch") == "" {
			state := serve.StateRunning
			if !time.Now().Before(settleAt()) {
				state = serve.StateDone
			}
			_ = enc.Encode(status(state))
			return
		}
		_ = enc.Encode(status(serve.StateRunning))
		w.(http.Flusher).Flush()
		time.Sleep(time.Until(settleAt()))
		_ = enc.Encode(status(serve.StateDone))
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{}\n"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestWatchTimesSettleBetweenPolls shows that a campaign settling 30 ms
// after its POST is timed at about 30 ms, while polling with
// serveclient.Wait would report the 60 ms poll step.
func TestWatchTimesSettleBetweenPolls(t *testing.T) {
	const settle = 30 * time.Millisecond
	srv := settleService(t, settle)
	cl := newClient(srv.URL)
	defer cl.close()
	ctx := context.Background()

	o := cl.runCampaign(ctx, 0, []byte(`{}`), nil)
	if o.Failed() {
		t.Fatalf("campaign failed: %v", o.Err)
	}
	if o.Latency < settle || o.Latency >= settle+25*time.Millisecond {
		t.Errorf("watch-timed latency %v, want within 25 ms after the %v settle", o.Latency, settle)
	}

	start := time.Now()
	st, err := cl.api.SubmitRaw(ctx, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.api.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if polled := time.Since(start); polled < 55*time.Millisecond {
		t.Errorf("polling completed after %v; the test no longer separates a poll step from the settle time", polled)
	}
}

// TestRefusedAndUnsettledCampaignsFail checks that a refused POST and a
// campaign settling other than done count as failures.
func TestRefusedAndUnsettledCampaignsFail(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) == "refuse" {
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"admission queue is full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.CampaignStatus{ID: "bad", State: serve.StateQueued})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.CampaignStatus{ID: "bad", State: serve.StateFailed, Error: "boom"})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := newClient(srv.URL)
	defer cl.close()

	for _, body := range []string{"refuse", "{}"} {
		if o := cl.runCampaign(context.Background(), 0, []byte(body), nil); !o.Failed() {
			t.Errorf("body %q: campaign counted as good", body)
		}
	}
}
