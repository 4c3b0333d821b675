package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"besst/internal/serve"
	"besst/internal/serveclient"
)

// Outcome is one campaign as the client saw it.
type Outcome struct {
	Index int
	ID    string
	// Latency runs from the POST until the result GET returned, with
	// the ?watch=1 stream in between.
	Latency time.Duration
	// Final is the last status line of the watch stream.
	Final serve.CampaignStatus
	Body  []byte
	// Err is why the campaign failed: refused, settled other than done,
	// or a wrong body. Nil for a good campaign.
	Err error
	// Traced marks campaigns run with span recording on.
	Traced bool
}

// Failed reports whether the campaign counts as a failure.
func (o *Outcome) Failed() bool { return o.Err != nil }

// client is the benchmark's single closed-loop caller: one transport
// limited to one connection to the service.
type client struct {
	api *serveclient.Client
	tr  *http.Transport
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{
		api: &serveclient.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr}},
		tr:  tr,
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// runCampaign posts one request and waits for its result. Completion is
// taken from the ?watch=1 stream, which the service ends as soon as the
// campaign settles, so the latency is not rounded up to a poll step.
// With recording on, the POST, the watch and the GET are spans under
// one campaign span, and the client-side canonicalization is timed
// first, outside the latency.
func (c *client) runCampaign(ctx context.Context, idx int, body []byte, rec *Recorder) *Outcome {
	out := &Outcome{Index: idx, Traced: rec.On()}
	var root Span
	if out.Traced {
		t0 := rec.Now()
		id, _, _, err := serve.HashRequest(body)
		if err != nil {
			out.Err = fmt.Errorf("canonicalize request: %w", err)
			return out
		}
		rec.Add(Span{Campaign: id, Name: "serve.canon", Start: t0, End: rec.Now()})
		root = Span{ID: rec.NewID(), Campaign: id, Name: "serve.campaign"}
		rec.SetParent(id, root.ID)
	}
	span := func(name string, fn func()) {
		if out.Traced {
			rec.Time(name, root.Campaign, root.ID, fn)
		} else {
			fn()
		}
	}

	start := time.Now()
	if out.Traced {
		root.Start = rec.Now()
	}
	var st serve.CampaignStatus
	span("serve.submit", func() { st, out.Err = c.api.SubmitRaw(ctx, body) })
	if out.Err != nil {
		out.Err = fmt.Errorf("submit refused: %w", out.Err)
		return out
	}
	out.ID = st.ID
	if out.Traced && st.ID != root.Campaign {
		out.Err = fmt.Errorf("service named campaign %s, client hash says %s", st.ID, root.Campaign)
		return out
	}
	span("serve.settle", func() {
		out.Err = c.api.Watch(ctx, st.ID, func(s serve.CampaignStatus) error {
			out.Final = s
			return nil
		})
	})
	if out.Err != nil {
		out.Err = fmt.Errorf("watch: %w", out.Err)
		return out
	}
	if out.Final.State != serve.StateDone {
		out.Err = fmt.Errorf("campaign settled %s: %s", out.Final.State, out.Final.Error)
		return out
	}
	span("serve.fetch", func() { out.Body, out.Err = c.api.Result(ctx, st.ID) })
	out.Latency = time.Since(start)
	if out.Err != nil {
		out.Err = fmt.Errorf("result: %w", out.Err)
		return out
	}
	if out.Traced {
		root.End = rec.Now()
		root.Bytes = int64(len(out.Body))
		rec.Add(root)
	}
	return out
}
