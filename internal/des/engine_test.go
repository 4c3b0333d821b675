package des

import (
	"testing"
	"testing/quick"
)

// recorder logs the order and time of every event it receives.
type recorder struct {
	times    []Time
	payloads []Payload
	ports    []string
}

func (r *recorder) HandleEvent(ctx *Context, ev Event) {
	r.times = append(r.times, ctx.Now())
	r.payloads = append(r.payloads, ev.Payload)
	r.ports = append(r.ports, ev.SrcPort)
}

// pinger sends count messages over its "out" link, one per received event.
type pinger struct {
	remaining int
}

func (p *pinger) HandleEvent(ctx *Context, ev Event) {
	if p.remaining <= 0 {
		return
	}
	p.remaining--
	ctx.Send("out", 0, Payload{A: int64(p.remaining)})
	if p.remaining > 0 {
		ctx.ScheduleSelf(Microsecond, Payload{})
	}
}

// echo bounces a counter back over its "peer" link until the counter
// reaches zero, recording each arrival time.
type echo struct {
	times []Time
}

func (c *echo) HandleEvent(ctx *Context, ev Event) {
	c.times = append(c.times, ctx.Now())
	if n := ev.Payload.A; n > 0 {
		ctx.Send("peer", 0, Payload{A: n - 1})
	}
}

func TestFromSeconds(t *testing.T) {
	if FromSeconds(1) != Second {
		t.Fatal("1s conversion wrong")
	}
	if FromSeconds(-5) != 0 {
		t.Fatal("negative seconds should clamp to zero")
	}
	if FromSeconds(1e-9) != Nanosecond {
		t.Fatal("1ns conversion wrong")
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	f := func(ns uint32) bool {
		tm := Time(ns)
		return FromSeconds(tm.Seconds()) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOrdering(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	e.ScheduleAt(30, id, Payload{Data: "c"})
	e.ScheduleAt(10, id, Payload{Data: "a"})
	e.ScheduleAt(20, id, Payload{Data: "b"})
	e.Run(0)
	if len(r.payloads) != 3 {
		t.Fatalf("got %d events", len(r.payloads))
	}
	for i, want := range []string{"a", "b", "c"} {
		if r.payloads[i].Data != want {
			t.Fatalf("event %d = %v, want %v", i, r.payloads[i], want)
		}
	}
	if r.times[0] != 10 || r.times[2] != 30 {
		t.Fatalf("bad times %v", r.times)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	for i := 0; i < 10; i++ {
		e.ScheduleAt(5, id, Payload{A: int64(i)})
	}
	e.Run(0)
	for i := 0; i < 10; i++ {
		if r.payloads[i].A != int64(i) {
			t.Fatalf("tie-break not FIFO: %v", r.payloads)
		}
	}
}

func TestLinkLatencyDelivery(t *testing.T) {
	e := NewEngine()
	p := &pinger{remaining: 1}
	r := &recorder{}
	pid := e.Register(p)
	rid := e.Register(r)
	e.Connect(pid, "out", rid, "in", 50)
	e.ScheduleAt(100, pid, Payload{})
	e.Run(0)
	if len(r.times) != 1 || r.times[0] != 150 {
		t.Fatalf("delivery times %v, want [150]", r.times)
	}
	if r.ports[0] != "in" {
		t.Fatalf("arrival port %q, want in", r.ports[0])
	}
}

func TestHorizonStopsClock(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	e.ScheduleAt(10, id, Payload{})
	e.ScheduleAt(1000, id, Payload{})
	end := e.Run(100)
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
	if len(r.times) != 1 {
		t.Fatalf("processed %d events, want 1", len(r.times))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestSelfScheduleChain(t *testing.T) {
	e := NewEngine()
	p := &pinger{remaining: 5}
	r := &recorder{}
	pid := e.Register(p)
	rid := e.Register(r)
	e.Connect(pid, "out", rid, "in", 1)
	e.ScheduleAt(0, pid, Payload{})
	e.Run(0)
	if len(r.times) != 5 {
		t.Fatalf("got %d pings, want 5", len(r.times))
	}
	if e.Processed() != 10 { // 5 pinger events + 5 recorder events
		t.Fatalf("processed = %d, want 10", e.Processed())
	}
}

func TestConnectDuplicatePanics(t *testing.T) {
	e := NewEngine()
	a := e.Register(&recorder{})
	b := e.Register(&recorder{})
	e.Connect(a, "out", b, "in", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate link")
		}
	}()
	e.Connect(a, "out", b, "in", 2)
}

func TestSendOnMissingPortPanics(t *testing.T) {
	e := NewEngine()
	p := &pinger{remaining: 1}
	pid := e.Register(p)
	e.ScheduleAt(0, pid, Payload{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing link")
		}
	}()
	e.Run(0)
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	id := e.Register(&recorder{})
	e.ScheduleAt(10, id, Payload{})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past scheduling")
		}
	}()
	e.ScheduleAt(5, id, Payload{})
}

func TestBidirectionalLink(t *testing.T) {
	e := NewEngine()
	a := &recorder{}
	b := &pinger{remaining: 1}
	aid := e.Register(a)
	bid := e.Register(b)
	e.ConnectBidirectional(aid, "out", bid, "out", 7)
	e.ScheduleAt(0, bid, Payload{})
	e.Run(0)
	if len(a.times) != 1 || a.times[0] != 7 {
		t.Fatalf("bidirectional delivery failed: %v", a.times)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	e.ScheduleAt(1, id, Payload{})
	e.ScheduleAt(2, id, Payload{})
	if !e.Step() || len(r.times) != 1 {
		t.Fatal("first step failed")
	}
	if !e.Step() || len(r.times) != 2 {
		t.Fatal("second step failed")
	}
	if e.Step() {
		t.Fatal("step on empty queue should return false")
	}
}

func TestTimeFormatting(t *testing.T) {
	if Second.String() != "1.000000s" {
		t.Fatalf("string = %q", Second.String())
	}
	if Millisecond.Duration().Milliseconds() != 1 {
		t.Fatal("duration conversion wrong")
	}
}

func TestLinkLatencyAccessor(t *testing.T) {
	e := NewEngine()
	probe := &latencyProbe{}
	a := e.Register(probe)
	b := e.Register(&recorder{})
	e.Connect(a, "out", b, "in", 42)
	e.ScheduleAt(0, a, Payload{})
	e.Run(0)
	if probe.seen != 42 {
		t.Fatalf("latency = %v, want 42", probe.seen)
	}
}

type latencyProbe struct{ seen Time }

func (p *latencyProbe) HandleEvent(ctx *Context, ev Event) {
	p.seen = ctx.LinkLatency("out")
}

func TestNegativeLinkLatencyPanics(t *testing.T) {
	e := NewEngine()
	a := e.Register(&recorder{})
	b := e.Register(&recorder{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Connect(a, "out", b, "in", -1)
}

func TestRegisterDuringRunPanics(t *testing.T) {
	e := NewEngine()
	id := e.Register(&registrar{eng: e})
	e.ScheduleAt(0, id, Payload{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Run(0)
}

type registrar struct{ eng *Engine }

func (r *registrar) HandleEvent(ctx *Context, ev Event) {
	r.eng.Register(&recorder{})
}
