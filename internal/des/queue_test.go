package des

import (
	"encoding/binary"
	"fmt"
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
		d := Time(ev.Payload.B * i)
		ctx.ScheduleSelf(d, Payload{})
		c.ref.push(ctx.Now() + d)
	}
}

// runQueueScript drives an engine through the operations data encodes
// — equal-time bursts, pushes at now (from outside and from handlers),
// interleaved times, single steps, Run(horizon) stops, peeks and Resets
// with events still queued — and holds every delivery, peek and pending
// count to a sorted reference. It drains the engine at the end.
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
	for pos < len(data) && c.err == nil {
		switch next() % 7 {
		case 0: // equal-time burst, possibly at now
			t := e.Now() + Time(next()%4)
			for n := next()%16 + 1; n > 0; n-- {
				schedule(t, Payload{})
			}
		case 1: // interleaved single push
			schedule(e.Now()+Time(next()%32), Payload{})
		case 2: // push at now whose handler pushes follow-ons
			schedule(e.Now(), Payload{A: next() % 8, B: next() % 3})
		case 3:
			e.Step()
		case 4:
			horizon := e.Now() + Time(next()%16) + 1
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

// TestEventQueueMatchesReference runs seeded random scripts through the
// engine's queue against the sorted reference.
func TestEventQueueMatchesReference(t *testing.T) {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runQueueScript(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEventQueueMemoryBound pushes over a million events through a
// queue that never holds more than 64, in the shapes the simulator
// produces (equal-time bursts, distinct times, pushes at now), and
// checks compaction keeps the log's capacity within 4x the peak pending
// count plus 128.
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
