package des

import (
	"bytes"
	"encoding/json"
	"testing"

	"besst/internal/obs"
)

// buildRing wires n echo components into a ring with the given latency
// on engine e.
func buildRing(e *Engine, n int, latency Time) []*echo {
	comps := make([]*echo, n)
	ids := make([]ComponentID, n)
	for i := 0; i < n; i++ {
		comps[i] = &echo{}
		ids[i] = e.Register(comps[i])
	}
	for i := 0; i < n; i++ {
		comps[i].peer = e.Connect(ids[i], ids[(i+1)%n], latency)
	}
	return comps
}

// TestEngineObservabilityFixture is the golden end-to-end fixture for
// the observability layer: a real DES run traced into a TraceBuffer,
// with its totals reported to a Collector, must yield a parseable
// Chrome trace and a versioned metrics document whose event count
// matches the engine's.
func TestEngineObservabilityFixture(t *testing.T) {
	buf := obs.NewTraceBuffer(obs.DefaultTraceCap)
	col := obs.NewCollector()

	e := NewEngine()
	e.SetTracer(buf, 7)
	buildRing(e, 8, 100)
	e.ScheduleAt(0, 0, Payload{A: 40})
	e.Run()
	col.EngineTotals(e.Processed(), e.PeakQueueDepth())

	if buf.Len() == 0 {
		t.Fatal("trace buffer recorded no events")
	}
	for _, r := range buf.Records() {
		if r.Stream != 7 {
			t.Fatalf("record carries stream %d, want 7", r.Stream)
		}
	}

	// The Chrome trace must be valid JSON with complete ("X") spans
	// for dispatches plus instant ("i") queue marks.
	var cbuf bytes.Buffer
	if err := buf.WriteChromeTrace(&cbuf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(cbuf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", trace.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, ev := range trace.TraceEvents {
		phases[ev.Phase]++
		if ev.PID != 7 {
			t.Fatalf("event pid %d, want stream 7", ev.PID)
		}
	}
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("trace phases %v: want both complete (X) and instant (i) events", phases)
	}

	// The metrics document must carry the schema version and the
	// engine totals, and no per-partition rows.
	var mbuf bytes.Buffer
	if err := col.WriteMetrics(&mbuf, "fixture"); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	var m struct {
		SchemaVersion   int    `json:"schema_version"`
		Tool            string `json:"tool"`
		EventsProcessed uint64 `json:"events_processed"`
		PeakQueueDepth  int    `json:"peak_queue_depth"`
	}
	if err := json.Unmarshal(mbuf.Bytes(), &m); err != nil {
		t.Fatalf("metrics document is not valid JSON: %v", err)
	}
	if m.SchemaVersion != 5 || obs.MetricsSchemaVersion != 5 {
		t.Fatalf("schema_version = %d (const %d), want 5", m.SchemaVersion, obs.MetricsSchemaVersion)
	}
	if m.Tool != "fixture" {
		t.Fatalf("tool = %q, want fixture", m.Tool)
	}
	if m.EventsProcessed != e.Processed() || m.EventsProcessed == 0 {
		t.Fatalf("events_processed = %d, want %d (non-zero)", m.EventsProcessed, e.Processed())
	}
	if m.PeakQueueDepth <= 0 {
		t.Fatalf("peak_queue_depth = %d, want > 0", m.PeakQueueDepth)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(mbuf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["partitions"]; ok {
		t.Fatal("metrics document still carries a partitions key")
	}
}

// TestTracerDoesNotPerturbRun asserts that attaching a recording tracer
// leaves the simulated trajectory untouched: same delivery times, same
// processed count, same end time.
func TestTracerDoesNotPerturbRun(t *testing.T) {
	run := func(tr Tracer) ([]*echo, Time, uint64) {
		e := NewEngine()
		if tr != nil {
			e.SetTracer(tr, 0)
		}
		comps := buildRing(e, 8, 100)
		e.ScheduleAt(0, 0, Payload{A: 40})
		end := e.Run()
		return comps, end, e.Processed()
	}

	plain, plainEnd, plainN := run(nil)
	traced, tracedEnd, tracedN := run(obs.NewTraceBuffer(1024))

	if plainEnd != tracedEnd || plainN != tracedN {
		t.Fatalf("traced run diverged: end %v vs %v, processed %d vs %d",
			tracedEnd, plainEnd, tracedN, plainN)
	}
	for i := range plain {
		a, b := plain[i].times, traced[i].times
		if len(a) != len(b) {
			t.Fatalf("component %d delivery count %d vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("component %d delivery %d at %v vs %v", i, j, b[j], a[j])
			}
		}
	}
}
