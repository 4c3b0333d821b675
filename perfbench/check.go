package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"

	"besst/internal/lulesh"
	"besst/internal/serve"
	"besst/internal/stats"
)

// checkBody verifies a result body without a reference: it must decode
// strictly, be in the service's canonical rendering, answer this
// request, and agree with itself wherever the document derives one
// field from others (the makespan summary, the overhead percentages).
func checkBody(req Request, id string, body []byte) error {
	var doc serve.CampaignResult
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("result does not decode: %w", err)
	}
	canon, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("result does not re-encode: %w", err)
	}
	if !bytes.Equal(append(canon, '\n'), body) {
		return fmt.Errorf("result is not in canonical form")
	}
	if doc.ID != id {
		return fmt.Errorf("result names campaign %s, want %s", doc.ID, id)
	}
	if doc.Run.Seed != req.Seed {
		return fmt.Errorf("result seed %d, request pinned %d", doc.Run.Seed, req.Seed)
	}
	if req.Role == "mc" {
		return checkMonteCarlo(req, &doc)
	}
	return checkSweep(req, &doc)
}

func checkMonteCarlo(req Request, doc *serve.CampaignResult) error {
	if doc.Kind != serve.KindMonteCarlo || doc.Trials != req.Units || len(doc.Makespans) != req.Units {
		return fmt.Errorf("result is %s with %d trials and %d makespans, want %s with %d",
			doc.Kind, doc.Trials, len(doc.Makespans), serve.KindMonteCarlo, req.Units)
	}
	if len(doc.FailedTrials) > 0 {
		return fmt.Errorf("%d trials quarantined", len(doc.FailedTrials))
	}
	for i, m := range doc.Makespans {
		if !(m > 0) || math.IsInf(m, 0) {
			return fmt.Errorf("trial %d makespan %v", i, m)
		}
	}
	if doc.Makespan == nil {
		return fmt.Errorf("result has no makespan summary")
	}
	want, _ := json.Marshal(stats.Summarize(doc.Makespans))
	got, _ := json.Marshal(doc.Makespan)
	if !bytes.Equal(want, got) {
		return fmt.Errorf("makespan summary %s does not summarize the makespans (%s)", got, want)
	}
	return nil
}

func checkSweep(req Request, doc *serve.CampaignResult) error {
	if doc.Kind != serve.KindSweep || len(doc.Cells) != req.Units {
		return fmt.Errorf("result is %s with %d cells, want %s with %d", doc.Kind, len(doc.Cells), serve.KindSweep, req.Units)
	}
	if len(doc.FailedPoints) > 0 {
		return fmt.Errorf("%d design points quarantined", len(doc.FailedPoints))
	}
	if searched := req.Role != "sweep"; searched != (doc.Search != nil) {
		return fmt.Errorf("search summary present=%v, want %v", doc.Search != nil, searched)
	}
	if s := doc.Search; s != nil && (s.GridPoints < req.Units || s.FullSims < 1 || s.FullSims > s.GridPoints) {
		return fmt.Errorf("search simulated %d of %d points", s.FullSims, s.GridPoints)
	}
	baseline, err := lulesh.ParseScenario(dseScenarios[0])
	if err != nil {
		return err
	}
	base := map[int]float64{}
	for _, c := range doc.Cells {
		if c.Ranks == dseRanks[0] && c.Scenario == baseline.Name {
			base[c.EPR] = c.MeanSec
		}
	}
	for _, c := range doc.Cells {
		b, ok := base[c.EPR]
		if !ok || !(c.MeanSec > 0) || math.IsInf(c.MeanSec, 0) {
			return fmt.Errorf("cell %s/epr=%d/ranks=%d: mean %v, baseline found %v", c.Scenario, c.EPR, c.Ranks, c.MeanSec, ok)
		}
		// The service computes the overhead with exactly this
		// expression, so the comparison is exact.
		if pct := 100 * (c.MeanSec / b); math.Float64bits(pct) != math.Float64bits(c.OverheadPct) {
			return fmt.Errorf("cell %s/epr=%d/ranks=%d: overhead %v, mean/baseline gives %v", c.Scenario, c.EPR, c.Ranks, c.OverheadPct, pct)
		}
	}
	return nil
}

// refBody is the in-process reference's answer to one request; err is
// set when the reference itself failed.
type refBody struct {
	body []byte
	err  error
}

// judge applies every check to a run's outcomes and records the first
// failure on each: the body checks above, byte equality of a re-post
// with its original, and byte equality with refs[i] where a reference
// was computed.
func judge(reqs []Request, outs []*Outcome, refs map[int]refBody) {
	for _, o := range outs {
		if o.Failed() {
			continue
		}
		req := reqs[o.Index]
		if err := checkBody(req, o.ID, o.Body); err != nil {
			o.Err = err
			continue
		}
		if src := req.RepostOf; src >= 0 && src < len(outs) && !outs[src].Failed() && !bytes.Equal(o.Body, outs[src].Body) {
			o.Err = fmt.Errorf("re-post of request %d returned different bytes", src)
			continue
		}
		ref, ok := refs[o.Index]
		switch {
		case !ok:
		case ref.err != nil:
			o.Err = fmt.Errorf("no in-process reference: %w", ref.err)
		case !bytes.Equal(o.Body, ref.body):
			o.Err = fmt.Errorf("body differs from the in-process reference")
		}
	}
}

// reference replays requests against a fresh in-process service with
// no backend, through its HTTP handler and a recorder: no listener, no
// dist, a cold compile cache and a cold point memo.
type reference struct {
	srv  *serve.Server
	h    http.Handler
	memo map[string][]byte // request body -> result body
}

func newReference() *reference {
	srv := serve.NewServer(serve.Config{})
	return &reference{srv: srv, h: srv.Handler(), memo: make(map[string][]byte)}
}

func (r *reference) close() { r.srv.Drain() }

// result returns the reference body for a request. A request body the
// reference already answered is not posted again: a re-post is compared
// with the original's cold answer.
func (r *reference) result(body []byte) ([]byte, error) {
	if out, ok := r.memo[string(body)]; ok {
		return out, nil
	}
	rec := r.do(http.MethodPost, "/v1/campaigns", body)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference submit: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var st serve.CampaignStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("reference submit: %w", err)
	}
	// The watch handler returns once the campaign settles.
	if rec = r.do(http.MethodGet, "/v1/campaigns/"+st.ID+"?watch=1", nil); rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference watch: %d", rec.Code)
	}
	rec = r.do(http.MethodGet, "/v1/campaigns/"+st.ID+"/result", nil)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference result: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	out := rec.Body.Bytes()
	r.memo[string(body)] = out
	return out, nil
}

func (r *reference) do(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// references computes reference bodies for the given request indices.
func references(reqs []Request, idx []int) map[int]refBody {
	ref := newReference()
	defer ref.close()
	out := make(map[int]refBody, len(idx))
	for _, i := range idx {
		body, err := ref.result(reqs[i].Body)
		out[i] = refBody{body: body, err: err}
	}
	return out
}

//go:embed digests.json
var digestsJSON []byte

// Digest pins the result bodies of the first Requests requests of a
// workload at DefaultSeed.
type Digest struct {
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`
	SHA256   string `json:"sha256"`
}

// storedDigests decodes digests.json.
func storedDigests() (map[string]Digest, error) {
	out := map[string]Digest{}
	if err := json.Unmarshal(digestsJSON, &out); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return out, nil
}

// bodyDigest hashes the bodies of outcomes [0, n), each prefixed with
// its length. It is empty when any of them is missing or failed.
func bodyDigest(outs []*Outcome, n int) string {
	if len(outs) < n {
		return ""
	}
	h := sha256.New()
	for _, o := range outs[:n] {
		if o.Failed() {
			return ""
		}
		// Writes to a hash never fail.
		_, _ = fmt.Fprintf(h, "%d\n", len(o.Body))
		_, _ = h.Write(o.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
