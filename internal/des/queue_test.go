package des

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"
)

// TestEventQueueOrdering drains a queue filled with heavily tied
// timestamps and checks pops come out in exact (Time, seq) order
// against a reference sort — the determinism contract the run queue
// must uphold.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	// Deterministic LCG; many duplicate times so seq tie-breaking is
	// exercised hard.
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	const n = 4096
	type key struct {
		t   Time
		seq uint64
	}
	want := make([]key, 0, n)
	for i := 0; i < n; i++ {
		tm := Time(next() % 64)
		q.push(Event{Time: tm, seq: uint64(i), Dst: ComponentID(i)})
		want = append(want, key{tm, uint64(i)})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].t != want[j].t {
			return want[i].t < want[j].t
		}
		return want[i].seq < want[j].seq
	})
	for i := 0; i < n; i++ {
		if pk := q.peek(); pk.Time != want[i].t || pk.seq != want[i].seq {
			t.Fatalf("peek %d: got (%d, %d), want (%d, %d)", i, pk.Time, pk.seq, want[i].t, want[i].seq)
		}
		got := q.pop()
		if got.Time != want[i].t || got.seq != want[i].seq {
			t.Fatalf("pop %d: got (%d, %d), want (%d, %d)", i, got.Time, got.seq, want[i].t, want[i].seq)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after draining: %d left", q.len())
	}
}

// TestEventQueueInterleaved mixes pushes and pops and checks every pop
// still returns the global minimum of what is currently queued.
func TestEventQueueInterleaved(t *testing.T) {
	var q eventQueue
	x := uint64(7)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	live := map[uint64]Time{} // seq -> time of everything queued
	seq := uint64(0)
	for round := 0; round < 2000; round++ {
		if q.len() == 0 || next()%3 != 0 {
			tm := Time(next() % 32)
			q.push(Event{Time: tm, seq: seq})
			live[seq] = tm
			seq++
			continue
		}
		got := q.pop()
		wantT, ok := live[got.seq]
		if !ok || got.Time != wantT {
			t.Fatalf("round %d: popped unknown/mismatched event (%d, %d)", round, got.Time, got.seq)
		}
		for s, tm := range live {
			if tm < got.Time || (tm == got.Time && s < got.seq) {
				t.Fatalf("round %d: popped (%d, %d) while (%d, %d) still queued", round, got.Time, got.seq, tm, s)
			}
		}
		delete(live, got.seq)
	}
}

// qkey is an event's position in the (Time, seq) order.
type qkey struct {
	t   Time
	seq uint64
}

func (k qkey) before(o qkey) bool { return k.t < o.t || k.t == o.t && k.seq < o.seq }

// refQueue is the sorted reference the engine's queue is held to. It
// stamps seqs exactly as Engine.schedule does: one per push, from zero
// after every reset.
type refQueue struct {
	keys []qkey
	seq  uint64
}

func (r *refQueue) push(t Time) {
	k := qkey{t, r.seq}
	r.seq++
	i := sort.Search(len(r.keys), func(i int) bool { return k.before(r.keys[i]) })
	r.keys = append(r.keys, qkey{})
	copy(r.keys[i+1:], r.keys[i:])
	r.keys[i] = k
}

func (r *refQueue) pop() qkey {
	k := r.keys[0]
	r.keys = r.keys[1:]
	return k
}

func (r *refQueue) reset() { r.keys, r.seq = r.keys[:0], 0 }

// scriptComp checks every delivery against the reference: the event
// must be the reference's minimum, and the engine must hold exactly as
// many events as the reference after the pop. An event whose A is k > 0
// then schedules k follow-on self events spaced B apart from now, so
// B = 0 is an equal-time burst pushed at now from inside a handler.
// Follow-on times saturate at math.MaxInt64.
type scriptComp struct {
	eng       *Engine
	ref       *refQueue
	delivered int
	err       error
}

func (c *scriptComp) HandleEvent(ctx *Context, ev Event) {
	c.delivered++
	if c.err != nil {
		return
	}
	want := c.ref.pop()
	if got := (qkey{ev.Time, ev.seq}); got != want {
		c.err = fmt.Errorf("delivery %d: got (%d, %d), want (%d, %d)", c.delivered, got.t, got.seq, want.t, want.seq)
		return
	}
	if c.eng.Pending() != len(c.ref.keys) {
		c.err = fmt.Errorf("delivery %d: %d pending, reference holds %d", c.delivered, c.eng.Pending(), len(c.ref.keys))
		return
	}
	for i := int64(0); i < ev.Payload.A; i++ {
		d := min(Time(ev.Payload.B*i), math.MaxInt64-ctx.Now())
		ctx.ScheduleSelf(d, Payload{})
		c.ref.push(ctx.Now() + d)
	}
}

// runQueueScript drives an engine through the operations data encodes
// — equal-time bursts, pushes at now (from outside and from handlers),
// interleaved times, compute bursts at distinct times, pushes near
// math.MaxInt64, single steps, Run(horizon) stops, peeks and Resets
// with events still queued — and holds every delivery, peek and pending
// count to a sorted reference. It drains the engine at the end. Times
// relative to now saturate at math.MaxInt64.
func runQueueScript(data []byte) error {
	e := NewEngine()
	ref := &refQueue{}
	c := &scriptComp{eng: e, ref: ref}
	id := e.Register(c)
	pos := 0
	next := func() int64 {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int64(data[pos-1])
	}
	schedule := func(t Time, p Payload) {
		e.ScheduleAt(t, id, p)
		ref.push(t)
	}
	after := func(d int64) Time { return e.Now() + min(Time(d), math.MaxInt64-e.Now()) }
	for pos < len(data) && c.err == nil {
		switch next() % 9 {
		case 0: // equal-time burst, possibly at now
			t := after(next() % 4)
			for n := next()%16 + 1; n > 0; n-- {
				schedule(t, Payload{})
			}
		case 1: // interleaved single push
			schedule(after(next()%32), Payload{})
		case 2: // push at now whose handler pushes follow-ons
			schedule(e.Now(), Payload{A: next() % 8, B: next() % 3})
		case 3:
			e.Step()
		case 4:
			horizon := after(next()%16 + 1)
			e.Run(horizon)
			if c.err == nil && len(ref.keys) > 0 && ref.keys[0].t <= horizon {
				return fmt.Errorf("Run(%d) stopped with (%d, %d) still due", horizon, ref.keys[0].t, ref.keys[0].seq)
			}
		case 5:
			if e.Pending() > 0 {
				if got, want := (qkey{e.queue.peek().Time, e.queue.peek().seq}), ref.keys[0]; got != want {
					return fmt.Errorf("peek: got (%d, %d), want (%d, %d)", got.t, got.seq, want.t, want.seq)
				}
			}
		case 6:
			e.Reset()
			ref.reset()
		case 7: // compute burst: up to 64 distinct times in stride order,
			// each handler pushing equal-time follow-ons at now
			n, stride, follow := next()%64+1, next()%66+1, next()%3
			for i := int64(0); i < n; i++ {
				schedule(after(1+i*stride%67), Payload{A: follow})
			}
		case 8: // a push near math.MaxInt64
			schedule(max(e.Now(), math.MaxInt64-Time(next()%4)), Payload{})
		}
		if c.err == nil && e.Pending() != len(ref.keys) {
			return fmt.Errorf("%d pending, reference holds %d", e.Pending(), len(ref.keys))
		}
	}
	e.Run(0)
	if c.err != nil {
		return c.err
	}
	if e.Pending() != 0 || len(ref.keys) != 0 {
		return fmt.Errorf("after draining: %d pending, reference holds %d", e.Pending(), len(ref.keys))
	}
	return nil
}

// batchScripts are hand-written queue scripts (see runQueueScript) for
// the batch tier: how runs that leave the tail collect in pend and
// drain as a sorted batch or through the heap.
var batchScripts = []struct {
	name string
	data []byte
}{
	// 64 distinct times, each delivery pushing two events at now.
	{"compute burst with equal-time follow-ons", []byte{7, 63, 4, 2}},
	// A batch starts draining; then a push at 5 (a straggler whose
	// time equals a batch run's) and one at 8 move the burst's last
	// run and the straggler to pend. The straggler is due before the
	// batch has drained, so pend goes to the heap.
	{"straggler while a batch drains", []byte{7, 63, 4, 0, 3, 3, 3, 1, 2, 1, 5, 5, 3, 5, 3, 5, 3, 3}},
	// pend holds runs at 5, 6, 5, 6 in seq order.
	{"equal times inside pend", []byte{1, 5, 1, 6, 1, 5, 1, 6, 1, 5, 5, 3, 3, 3}},
	{"one-run pend", []byte{1, 5, 1, 6, 3, 5, 3}},
	// Pushes at 10 and 5, a pop of 5, then pushes at 10 and 5 again:
	// pend holds two runs at 10.
	{"lo == hi", []byte{1, 10, 1, 5, 3, 1, 5, 1, 0, 3, 5}},
	// pend spans [3, math.MaxInt64], then three runs near the top.
	{"span near MaxInt64", []byte{1, 3, 8, 0, 1, 5, 3, 8, 1, 8, 2, 8, 3, 1, 0, 3, 5}},
	// A 64-run burst, a far run and a push at now that moves the far
	// run to pend: every near run shares bucket 0, so the insertion
	// pass sorts them all.
	{"burst and a far run", []byte{7, 63, 7, 1, 8, 0, 1, 0, 3, 3, 3, 5, 7, 20, 3, 0, 3, 3}},
}

// TestEventQueueMatchesReference runs the batch scripts and seeded
// random scripts through the engine's queue against the sorted
// reference.
func TestEventQueueMatchesReference(t *testing.T) {
	for _, s := range batchScripts {
		if err := runQueueScript(s.data); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	x := uint64(0x243f6a8885a308d3)
	for script := 0; script < 200; script++ {
		data := make([]byte, 2048)
		for i := 0; i < len(data); i += 8 {
			x = x*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(data[i:], x)
		}
		if err := runQueueScript(data); err != nil {
			t.Fatalf("script %d: %v", script, err)
		}
	}
}

// FuzzEventQueue holds the queue to the sorted reference over arbitrary
// operation scripts.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 9, 3, 3, 1, 7, 4, 5, 6, 2, 5, 0, 4, 3})
	f.Add([]byte{2, 7, 0, 4, 2, 1, 2, 5, 5, 0, 0, 15, 4, 15, 6, 0, 1, 2})
	for _, s := range batchScripts {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runQueueScript(data); err != nil {
			t.Fatal(err)
		}
	})
}

// barrierRank is one rank of TestBarrierBurstStraggler: a release
// (kind 0) starts a compute step of pseudo-random length, and the
// step's end (kind 1) is reported to the barrier. With direct set, the
// rank sends its report to arrive when the step ends instead, as a DES
// rank does when its compute ends at a sync.
type barrierRank struct {
	toBarrier LinkID
	x         uint64 // LCG state
	direct    bool
}

func (r *barrierRank) HandleEvent(ctx *Context, ev Event) {
	if ev.Payload.Kind == 0 {
		r.x = r.x*6364136223846793005 + 1442695040888963407
		if r.direct {
			ctx.Send(r.toBarrier, Time(1+r.x>>54), Payload{})
		} else {
			ctx.ScheduleSelf(Time(1+r.x>>54), Payload{Kind: 1})
		}
		return
	}
	ctx.Send(r.toBarrier, 0, Payload{})
}

// rankBarrier releases every rank once all have reported, until its
// rounds run out.
type rankBarrier struct {
	release []LinkID
	arrived int
	rounds  int
}

func (b *rankBarrier) HandleEvent(ctx *Context, _ Event) {
	if b.arrived++; b.arrived < len(b.release) {
		return
	}
	b.arrived = 0
	if b.rounds--; b.rounds > 0 {
		for _, l := range b.release {
			ctx.Send(l, 0, Payload{})
		}
	}
}

// TestBarrierBurstStraggler pins which tiers a barrier-synchronised
// compute burst (the DES traffic of a LULESH step) takes. All compute
// ends but the last-scheduled one drain as one sorted batch. When each
// compute ends in a self event, the last-scheduled one stays in the
// tail until the first arrival at the barrier pushes it to pend; the
// batch is still draining by then, so unless it is the burst's latest
// it goes through the heap, as the only run there. When each rank's
// arrival is sent to land at its compute end, nothing is pushed until
// the last arrival, so the last-scheduled one is popped from the tail
// and the heap stays empty.
func TestBarrierBurstStraggler(t *testing.T) {
	const ranks, rounds = 64, 50
	for _, direct := range []bool{false, true} {
		e := NewEngine()
		bar := &rankBarrier{rounds: rounds}
		barID := e.Register(bar)
		rs := make([]barrierRank, ranks)
		for i := range rs {
			rs[i].x = uint64(i) * 0x9e3779b97f4a7c15
			rs[i].direct = direct
			id := e.Register(&rs[i])
			rs[i].toBarrier = e.Connect(id, barID, 0)
			bar.release = append(bar.release, e.Connect(barID, id, 0))
			e.ScheduleAt(0, id, Payload{})
		}
		q := &e.queue
		heapRuns, maxHeap, maxBatch := 0, 0, 0
		for e.Pending() > 0 {
			q.peek() // flushes pend as pop would
			if len(q.runs) > 0 {
				heapRuns++
			}
			maxHeap = max(maxHeap, len(q.runs))
			maxBatch = max(maxBatch, len(q.batch)-q.bi)
			e.Step()
		}
		if maxBatch < ranks/2 {
			t.Errorf("direct=%v: largest live batch %d runs, want a compute burst's (about %d)", direct, maxBatch, ranks-1)
		}
		switch {
		case direct && maxHeap != 0:
			t.Errorf("direct arrivals: heap held up to %d runs over %d deliveries; want none", maxHeap, heapRuns)
		case !direct && (maxHeap != 1 || heapRuns < rounds/2 || heapRuns > rounds):
			t.Errorf("heap held up to %d runs over %d deliveries in %d rounds; want one straggler run in most rounds", maxHeap, heapRuns, rounds)
		}
	}
}

// TestEventQueueMemoryBound pushes over a million events through a
// queue that never holds more than 64, in the shapes the simulator
// produces (equal-time bursts, compute bursts at distinct times, single
// distinct times, pushes at now), and checks compaction keeps the log's
// capacity within 4x the peak pending count plus 128, and every run
// list's within the same bound.
func TestEventQueueMemoryBound(t *testing.T) {
	var q eventQueue
	x := uint64(11)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	var now Time
	var seq uint64
	peak := 0
	push := func(t Time) {
		q.push(Event{Time: t, seq: seq})
		seq++
		peak = max(peak, q.len())
	}
	for seq < 1<<20+1000 {
		switch {
		case q.len() == 0 && next()%2 == 0:
			stride := Time(next()%66 + 1)
			for i := Time(0); i < 64; i++ {
				push(now + 1 + i*stride%67)
			}
		case q.len() < 64 && next()%2 == 0:
			t := now + Time(next()%4)
			for n := min(int(next()%16)+1, 64-q.len()); n > 0; n-- {
				push(t)
			}
		case q.len() < 64:
			push(now + Time(next()%1000))
		case q.len() > 0:
			now = q.pop().Time
		}
		if q.len() > 0 && next()%3 == 0 {
			now = q.pop().Time
		}
	}
	if peak > 64 {
		t.Fatalf("peak pending %d exceeds the test's 64", peak)
	}
	limit := 4*peak + 128
	if cap(q.log) > limit || cap(q.spare) > limit {
		t.Fatalf("after %d events at peak %d pending: log capacity %d, spare %d, want <= %d",
			seq, peak, cap(q.log), cap(q.spare), limit)
	}
	if cap(q.runs) > limit || cap(q.batch) > limit || cap(q.pend) > limit || cap(q.count) > limit {
		t.Fatalf("at peak %d pending: run capacities heap %d, batch %d, pend %d, buckets %d, want <= %d",
			peak, cap(q.runs), cap(q.batch), cap(q.pend), cap(q.count), limit)
	}
}

// compactComp checks every delivery against the reference and every
// field of its event against what was scheduled. A trigger event then
// pushes a burst of self events at distinct times and the next trigger
// after them, and checks that the event it received is still the one
// scheduled, after pushes that compacted the log its slot was popped
// from.
type compactComp struct {
	eng         *Engine
	ref         *refQueue
	id          ComponentID
	burst       int
	rounds      int
	compactions int // trigger dispatches whose pushes compacted the log
	err         error
}

const (
	triggerKind = 7
	burstKind   = 8
)

// trigger is the event round r's trigger carries, scheduled at t.
func (c *compactComp) trigger(t Time, r int) Event {
	return Event{Time: t, Dst: c.id, Payload: Payload{Kind: triggerKind, A: int64(r), B: -1000*int64(r) - 17}}
}

func (c *compactComp) HandleEvent(ctx *Context, ev Event) {
	if c.err != nil {
		return
	}
	want := c.ref.pop()
	if got := (qkey{ev.Time, ev.seq}); got != want {
		c.err = fmt.Errorf("delivery at %d: got (%d, %d), want (%d, %d)", ctx.Now(), got.t, got.seq, want.t, want.seq)
		return
	}
	if ev.Dst != c.id {
		c.err = fmt.Errorf("delivery at %d: Dst %d, want %d", ctx.Now(), ev.Dst, c.id)
		return
	}
	if ev.Payload.Kind == burstKind {
		// Burst event i of a trigger at t carries A = t, B = -i.
		if ev.Time != Time(ev.Payload.A-ev.Payload.B) {
			c.err = fmt.Errorf("burst event arrived at %d with payload %+v", ev.Time, ev.Payload)
		}
		return
	}
	// A compaction swaps the log into the spare, so a spare that holds
	// the log's array from before the pushes means they compacted it.
	popped := unsafe.SliceData(c.eng.queue.log)
	for i := 1; i <= c.burst; i++ {
		ctx.ScheduleSelf(Time(i), Payload{Kind: burstKind, A: int64(ctx.Now()), B: -int64(i)})
		c.ref.push(ctx.Now() + Time(i))
	}
	r := int(ev.Payload.A)
	if r+1 < c.rounds {
		next := c.trigger(ctx.Now()+Time(c.burst+1), r+1)
		ctx.ScheduleSelf(Time(c.burst+1), next.Payload)
		c.ref.push(next.Time)
	}
	if unsafe.SliceData(c.eng.queue.spare) == popped {
		c.compactions++
	}
	if want := c.trigger(ctx.Now(), r); ev.Time != want.Time || ev.Dst != want.Dst || ev.Payload != want.Payload {
		c.err = fmt.Errorf("round %d trigger arrived as %+v after its pushes, want %+v", r, ev, want)
	}
}

// TestDispatchAcrossCompaction holds the popped-slot rule: the engine
// dispatches an event from its slot in the queue's log, and a handler's
// pushes may compact that log. Each trigger's burst follows a drained
// one, so the trigger's pushes compact the log; across rounds the
// compaction target alternates, so later rounds write over the array
// earlier triggers were popped from. (One dispatch cannot compact twice:
// pushes add no dead slots.) The trigger must arrive intact, and every
// later delivery must match the sorted reference.
func TestDispatchAcrossCompaction(t *testing.T) {
	e := NewEngine()
	e.Register(&recorder{}) // so the checked component's ID is not zero
	ref := &refQueue{}
	c := &compactComp{eng: e, ref: ref, burst: 300, rounds: 6}
	c.id = e.Register(c)
	first := c.trigger(5, 0)
	e.ScheduleAt(first.Time, first.Dst, first.Payload)
	ref.push(first.Time)
	e.Run(0)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if len(ref.keys) != 0 || e.Pending() != 0 {
		t.Fatalf("after draining: %d pending, reference holds %d", e.Pending(), len(ref.keys))
	}
	if c.compactions < 2 {
		t.Fatalf("%d trigger dispatches compacted the log, want at least 2", c.compactions)
	}
	if want := uint64(c.rounds * (c.burst + 1)); e.Processed() != want {
		t.Fatalf("processed %d events, want %d", e.Processed(), want)
	}
}
