package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"besst/internal/besst"
	"besst/internal/cli"
	"besst/internal/serve"
	"besst/internal/stats"
)

// mcBody renders a well-formed monte_carlo result for req the way the
// service renders result documents; base is the first makespan.
func mcBody(t *testing.T, req Request, id string, base float64) []byte {
	t.Helper()
	ms := make([]float64, req.Units)
	for i := range ms {
		ms[i] = base + 0.125*float64(i)
	}
	sum := stats.Summarize(ms)
	doc := serve.CampaignResult{
		SchemaVersion: serve.RequestSchemaVersion,
		ID:            id,
		Kind:          serve.KindMonteCarlo,
		Run:           besst.RunSpec{SchemaVersion: 1, Mode: "des", MonteCarlo: true, Seed: req.Seed, PerRankNoise: true},
		Trials:        req.Units,
		Makespan:      &sum,
		Makespans:     ms,
		EventsPerRun:  65344,
		Breakdown:     &besst.Breakdown{ComputeSec: 10, CommSec: 1, CkptSec: 1.5},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// flipped returns body with byte i changed.
func flipped(body []byte, i int) []byte {
	out := bytes.Clone(body)
	out[i] ^= 0x01
	return out
}

// TestFlippedByteIsAFailure shows that one wrong byte in a result makes
// the campaign a failure whose units and latency leave the metrics,
// rather than a faster run.
func TestFlippedByteIsAFailure(t *testing.T) {
	reqs := genMCDESDist(DefaultSeed, 2)
	good := mcBody(t, reqs[1], "c1", 12.5)
	if err := checkBody(reqs[1], "c1", good); err != nil {
		t.Fatalf("well-formed body rejected: %v", err)
	}

	// Without a reference: a digit of one makespan no longer matches
	// the summary the document carries.
	digit := bytes.Index(good, []byte("12.625")) + 3
	b := &bench{o: options{trace: 1}, p: cli.NewPrinter(io.Discard), reqs: reqs, outs: []*Outcome{
		{Index: 0, ID: "c0", Body: mcBody(t, reqs[0], "c0", 12.5)},
		{Index: 1, ID: "c1", Body: flipped(good, digit)},
	}}
	judge(reqs, b.outs, nil)
	if b.outs[0].Failed() || !b.outs[1].Failed() {
		t.Fatalf("failures: %v, %v; want only the flipped body to fail", b.outs[0].Err, b.outs[1].Err)
	}
	if units := b.units(b.timed()); units != reqs[0].Units {
		t.Errorf("timed units %d, want %d: a wrong body must not count as work done", units, reqs[0].Units)
	}
	if res := b.result(EndToEnd, map[string]float64{}, true); res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("result %+v, want 1 of 2 failed and not correct", res)
	}

	// With a reference, a flip of any byte anywhere is a failure.
	for i := range good {
		outs := []*Outcome{{Index: 1, ID: "c1", Body: flipped(good, i)}}
		judge(reqs, outs, map[int]refBody{1: {body: good}})
		if !outs[0].Failed() {
			t.Fatalf("flipping byte %d (%q) went unnoticed", i, good[i])
		}
	}
}

// TestRepostMustMatchOriginal checks the memo-warm re-post against the
// cold original.
func TestRepostMustMatchOriginal(t *testing.T) {
	reqs := genMCDESDist(DefaultSeed, 2)
	reqs[1] = reqs[0]
	reqs[1].RepostOf = 0
	body := mcBody(t, reqs[0], "c0", 12.5)
	outs := []*Outcome{{Index: 0, ID: "c0", Body: body}, {Index: 1, ID: "c0", Body: bytes.Clone(body)}}
	judge(reqs, outs, nil)
	if outs[1].Failed() {
		t.Fatalf("identical re-post failed: %v", outs[1].Err)
	}
	// A well-formed answer, but not the one given the first time.
	outs[1] = &Outcome{Index: 1, ID: "c0", Body: mcBody(t, reqs[0], "c0", 13.5)}
	judge(reqs, outs, nil)
	if !outs[1].Failed() {
		t.Fatal("re-post with different bytes passed")
	}
}
