// Package obs is the observability layer of the simulator: lifecycle
// tracing for the discrete-event engines, run-level metrics, and
// profiling capture. It is stdlib-only and deliberately import-free of
// the simulation packages — the engine hook interfaces (des.Tracer,
// besst.Collector, dse.Collector) are typed with builtins, so the
// concrete implementations here satisfy them structurally.
//
// Two consumers split the work:
//
//   - TraceBuffer implements des.Tracer: it records per-event lifecycle
//     records (dispatch, send) into a preallocated ring buffer and
//     exports them in Chrome trace_event JSON, so a run opens directly
//     in chrome://tracing or Perfetto.
//   - Collector aggregates run-level metrics — events processed, peak
//     queue depth, wall-clock per phase, per-trial Monte Carlo timings,
//     DSE sweep point timings — and writes them as a versioned
//     METRICS_*.json document.
//
// obs is the one sanctioned reader of the wall clock in the simulator
// stack: the nodeterminism lint check keeps time.Now out of the
// simulation packages, which instead call the primitive-typed hooks and
// let the implementations here stamp wall time. Nothing recorded ever
// feeds back into a simulation, so instrumented runs stay byte-identical
// to uninstrumented ones.
package obs

import (
	"sync"
	"time"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds.
const (
	// KindDispatch is one component handling one event: Comp is the
	// component, Sim the event time, WallDur the handler's wall time,
	// Aux the simulated time at handler return.
	KindDispatch Kind = iota
	// KindQueued is one event being scheduled: Comp is the destination
	// component, Sim the scheduling time, Aux the delivery time.
	KindQueued
)

func (k Kind) String() string {
	switch k {
	case KindDispatch:
		return "dispatch"
	case KindQueued:
		return "queued"
	}
	return "unknown"
}

// Record is one fixed-size trace entry. Stream distinguishes engines
// sharing a tracer (Monte Carlo trial index); Wall is nanoseconds since
// the buffer was created.
type Record struct {
	Kind    Kind
	Stream  int32
	Comp    int32
	Sim     int64 // simulated ns
	Aux     int64 // kind-specific (see Kind docs)
	Wall    int64 // wall ns since trace start
	WallDur int64 // wall ns duration (-1 while a dispatch record is open)
}

// TraceBuffer is a bounded, concurrency-safe recorder implementing the
// engine tracer hooks. Records land in a ring buffer preallocated at
// construction: once full, the oldest records are overwritten and
// counted as dropped rather than growing the heap mid-run.
type TraceBuffer struct {
	mu      sync.Mutex
	recs    []Record // guarded by mu
	n       uint64   // total records ever appended; guarded by mu
	dropped uint64   // guarded by mu
	// openDispatch maps a stream to the absolute index of its open
	// dispatch record awaiting EventReturn.
	openDispatch map[int]uint64 // guarded by mu
	clock        func() int64   // wall ns; swappable for deterministic tests; guarded by mu
	start        int64          // trace epoch; guarded by mu
}

// DefaultTraceCap is the default ring capacity: 1<<16 records ≈ 3 MiB,
// enough for every event of a validation-scale DES run while bounding
// tracing of mega-scale runs to the most recent window.
const DefaultTraceCap = 1 << 16

// NewTraceBuffer returns a buffer holding at most capacity records
// (<= 0 selects DefaultTraceCap).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	b := &TraceBuffer{
		recs:         make([]Record, 0, capacity),
		openDispatch: map[int]uint64{},
		clock:        wallClock,
	}
	b.start = b.clock()
	return b
}

func wallClock() int64 { return time.Now().UnixNano() }

// setClock swaps the wall-clock source (tests only) and restarts the
// trace epoch.
func (b *TraceBuffer) setClock(clock func() int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock = clock
	b.start = clock()
}

// append stores r (stamping Wall) and returns its absolute index.
// Caller holds b.mu.
//
//lint:ignore lockguard the caller-holds-mu contract is stated above; every caller is a locked hook method
func (b *TraceBuffer) append(r Record) uint64 {
	r.Wall = b.clock() - b.start
	idx := b.n
	if len(b.recs) < cap(b.recs) {
		b.recs = append(b.recs, r)
	} else {
		b.recs[idx%uint64(cap(b.recs))] = r
		b.dropped++
	}
	b.n++
	return idx
}

// at returns a pointer to the record at absolute index idx, or nil if
// the ring has already overwritten it. Caller holds b.mu.
//
//lint:ignore lockguard the caller-holds-mu contract is stated above; every caller is a locked hook method
func (b *TraceBuffer) at(idx uint64) *Record {
	if b.n-idx > uint64(cap(b.recs)) {
		return nil
	}
	return &b.recs[idx%uint64(cap(b.recs))]
}

// EventDispatch implements the engine tracer hook: it opens a dispatch
// record that EventReturn closes with the handler's wall duration.
func (b *TraceBuffer) EventDispatch(stream, comp int, simNs int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := b.append(Record{
		Kind: KindDispatch, Stream: int32(stream),
		Comp: int32(comp), Sim: simNs, WallDur: -1,
	})
	b.openDispatch[stream] = idx
}

// EventReturn closes the stream's open dispatch record.
func (b *TraceBuffer) EventReturn(stream int, simNs int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx, ok := b.openDispatch[stream]
	if !ok {
		return
	}
	delete(b.openDispatch, stream)
	if r := b.at(idx); r != nil && r.Kind == KindDispatch && r.WallDur < 0 {
		r.WallDur = (b.clock() - b.start) - r.Wall
		r.Aux = simNs
	}
}

// EventQueued records one event being scheduled.
func (b *TraceBuffer) EventQueued(stream, dst int, simNs, deliverNs int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.append(Record{
		Kind: KindQueued, Stream: int32(stream),
		Comp: int32(dst), Sim: simNs, Aux: deliverNs,
	})
}

// Len returns the number of records currently retained.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// Dropped returns how many records the ring overwrote.
func (b *TraceBuffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Records returns the retained records in append order (oldest first).
func (b *TraceBuffer) Records() []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Record, len(b.recs))
	if b.dropped == 0 {
		copy(out, b.recs)
		return out
	}
	head := int(b.n % uint64(cap(b.recs)))
	copy(out, b.recs[head:])
	copy(out[len(b.recs)-head:], b.recs[:head])
	return out
}
