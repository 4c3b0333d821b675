package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fakeClock is a deterministic wall-clock source: each read advances
// time by step.
type fakeClock struct {
	now  int64
	step int64
}

func (c *fakeClock) read() int64 {
	c.now += c.step
	return c.now
}

func newTestBuffer(capacity int) (*TraceBuffer, *fakeClock) {
	b := NewTraceBuffer(capacity)
	clk := &fakeClock{step: 100}
	b.setClock(clk.read)
	return b, clk
}

func TestTraceBufferDispatchPairing(t *testing.T) {
	b, _ := newTestBuffer(16)
	b.EventDispatch(0, 7, 1000)
	b.EventReturn(0, 1000)
	recs := b.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != KindDispatch || r.Comp != 7 || r.Sim != 1000 {
		t.Fatalf("unexpected record %+v", r)
	}
	if r.WallDur <= 0 {
		t.Fatalf("dispatch duration not patched: %+v", r)
	}
}

func TestTraceBufferStreamsDoNotCrossPatch(t *testing.T) {
	b, _ := newTestBuffer(16)
	b.EventDispatch(1, 1, 10)
	b.EventDispatch(2, 2, 20)
	b.EventReturn(1, 10)
	recs := b.Records()
	if recs[0].WallDur <= 0 {
		t.Fatalf("stream 1 dispatch not closed: %+v", recs[0])
	}
	if recs[1].WallDur != -1 {
		t.Fatalf("stream 2 dispatch wrongly closed: %+v", recs[1])
	}
}

func TestTraceBufferRingWrap(t *testing.T) {
	b, _ := newTestBuffer(4)
	for i := 0; i < 10; i++ {
		b.EventQueued(0, i, int64(i), int64(i+1))
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if b.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", b.Dropped())
	}
	recs := b.Records()
	// Oldest retained record first: destinations 6,7,8,9.
	for i, r := range recs {
		if want := int32(6 + i); r.Comp != want {
			t.Fatalf("record %d has dst %d, want %d", i, r.Comp, want)
		}
	}
}

func TestTraceBufferWrapDoesNotPatchOverwrittenSlot(t *testing.T) {
	b, _ := newTestBuffer(2)
	b.EventDispatch(0, 1, 10) // will be overwritten before its return
	b.EventQueued(0, 2, 20, 30)
	b.EventQueued(0, 3, 40, 50) // wraps, overwriting the dispatch
	b.EventReturn(0, 10)        // must not corrupt the queued record
	for _, r := range b.Records() {
		if r.Kind != KindQueued {
			t.Fatalf("expected only queued records after wrap, got %+v", r)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	b, _ := newTestBuffer(16)
	b.EventDispatch(3, 9, 100)
	b.EventReturn(3, 100)
	b.EventQueued(3, 4, 100, 200)

	var buf bytes.Buffer
	if err := b.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Phase]++
		if ev.PID != 3 {
			t.Fatalf("event %q has pid %d, want stream 3", ev.Name, ev.PID)
		}
	}
	if phases["X"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase histogram %v, want 1 X + 1 i", phases)
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector()
	clk := &fakeClock{step: 1000}
	c.setClock(clk.read)

	done := c.PhaseStart("simulate")
	c.TrialStart(0)
	c.EngineTotals(2, 5)
	c.TrialDone(0)
	c.PointStart(3)
	c.PointDone(3)
	done()

	m := c.Snapshot("unit")
	if m.SchemaVersion != MetricsSchemaVersion {
		t.Fatalf("schema version %d, want %d", m.SchemaVersion, MetricsSchemaVersion)
	}
	if m.EventsProcessed != 2 || m.PeakQueueDepth != 5 {
		t.Fatalf("totals %+v", m)
	}
	if len(m.Trials) != 1 || m.Trials[0].Index != 0 || m.Trials[0].WallNs <= 0 {
		t.Fatalf("trials %+v", m.Trials)
	}
	if len(m.Points) != 1 || m.Points[0].Index != 3 {
		t.Fatalf("points %+v", m.Points)
	}
	if len(m.Phases) != 1 || m.Phases[0].Name != "simulate" || m.Phases[0].WallNs <= 0 {
		t.Fatalf("phases %+v", m.Phases)
	}
	if len(m.Runtime) == 0 {
		t.Fatalf("runtime/metrics sample is empty")
	}
}

func TestWriteMetricsRoundTrip(t *testing.T) {
	c := NewCollector()
	c.EngineTotals(42, 7)
	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf, "unit"); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	var m Metrics
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if m.SchemaVersion != MetricsSchemaVersion || m.Tool != "unit" || m.EventsProcessed != 42 {
		t.Fatalf("round-trip mismatch: %+v", m)
	}
}

func TestMetricsPath(t *testing.T) {
	if got := MetricsPath("results", "besst-sim"); got != "results/METRICS_besst-sim.json" {
		t.Fatalf("MetricsPath = %q", got)
	}
}

// TestCollectorProgress exercises the lightweight progress snapshot the
// service layer polls: started/done span counts, engine totals, and
// fault provenance, without a full Snapshot.
func TestCollectorProgress(t *testing.T) {
	c := NewCollector()
	c.TrialStart(0)
	c.TrialDone(0)
	c.TrialStart(1)
	c.PointStart(0)
	c.PointDone(0)
	c.EngineTotals(123, 4)
	c.TrialRetry(1, 1)
	c.TrialQuarantined(2, 3)
	c.TrialsReplayed(5)

	p := c.Progress()
	want := Progress{
		TrialsStarted: 2, TrialsDone: 1,
		PointsStarted: 1, PointsDone: 1,
		EventsProcessed: 123,
		Retries:         1, Quarantined: 1, Replayed: 5,
	}
	if p != want {
		t.Fatalf("Progress = %+v, want %+v", p, want)
	}
}

// TestCollectorSearchRounds exercises the surrogate-search metrics:
// per-round entries land in the metrics document in order, and the
// progress snapshot summarizes round count and cumulative evaluations.
func TestCollectorSearchRounds(t *testing.T) {
	c := NewCollector()
	c.SearchRound(1, 10, 10, 0.5)
	c.SearchRound(2, 4, 14, 0.25)

	m := c.Snapshot("unit")
	if len(m.SearchRounds) != 2 {
		t.Fatalf("got %d search rounds, want 2", len(m.SearchRounds))
	}
	r := m.SearchRounds[1]
	if r.Round != 2 || r.Evaluated != 4 || r.CumEvaluated != 14 || r.BestMeanSec != 0.25 {
		t.Fatalf("round entry %+v", r)
	}

	p := c.Progress()
	if p.SearchRounds != 2 || p.SearchEvaluated != 14 {
		t.Fatalf("progress %+v, want 2 rounds, 14 evaluated", p)
	}

	// A collector with no search activity keeps the fields absent.
	if m := NewCollector().Snapshot("unit"); m.SearchRounds != nil {
		t.Fatalf("empty collector emitted search rounds: %+v", m.SearchRounds)
	}
}
