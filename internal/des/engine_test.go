package des

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// recorder logs the order and time of every event it receives.
type recorder struct {
	times    []Time
	payloads []Payload
}

func (r *recorder) HandleEvent(ctx *Context, ev Event) {
	r.times = append(r.times, ctx.Now())
	r.payloads = append(r.payloads, ev.Payload)
}

// pinger sends count messages over its out link, one per received event.
type pinger struct {
	remaining int
	out       LinkID
}

func (p *pinger) HandleEvent(ctx *Context, ev Event) {
	if p.remaining <= 0 {
		return
	}
	p.remaining--
	ctx.Send(p.out, 0, Payload{A: int64(p.remaining)})
	if p.remaining > 0 {
		ctx.ScheduleSelf(Microsecond, Payload{})
	}
}

// echo passes a counter on over its peer link until the counter
// reaches zero, recording each arrival time.
type echo struct {
	times []Time
	peer  LinkID
}

func (c *echo) HandleEvent(ctx *Context, ev Event) {
	c.times = append(c.times, ctx.Now())
	if n := ev.Payload.A; n > 0 {
		ctx.Send(c.peer, 0, Payload{A: n - 1})
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
	e.ScheduleAt(30, id, Payload{A: 3})
	e.ScheduleAt(10, id, Payload{A: 1})
	e.ScheduleAt(20, id, Payload{A: 2})
	e.Run()
	if len(r.payloads) != 3 {
		t.Fatalf("got %d events", len(r.payloads))
	}
	for i, want := range []int64{1, 2, 3} {
		if r.payloads[i].A != want {
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
	e.Run()
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
	p.out = e.Connect(pid, rid, 50)
	e.ScheduleAt(100, pid, Payload{})
	e.Run()
	if len(r.times) != 1 || r.times[0] != 150 {
		t.Fatalf("delivery times %v, want [150]", r.times)
	}
}

func TestSelfScheduleChain(t *testing.T) {
	e := NewEngine()
	p := &pinger{remaining: 5}
	r := &recorder{}
	pid := e.Register(p)
	rid := e.Register(r)
	p.out = e.Connect(pid, rid, 1)
	e.ScheduleAt(0, pid, Payload{})
	e.Run()
	if len(r.times) != 5 {
		t.Fatalf("got %d pings, want 5", len(r.times))
	}
	if e.Processed() != 10 { // 5 pinger events + 5 recorder events
		t.Fatalf("processed = %d, want 10", e.Processed())
	}
}

// TestSendOnMissingPortPanics: a component that was never wired sends
// on the zero handle, which no Connect returned.
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
	e.Run()
}

// TestSendOnForeignLinkPanics: a component may send only on links it
// is the source of; another component's handle and a handle no Connect
// returned are both wiring bugs.
func TestSendOnForeignLinkPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		out  func(foreign LinkID) LinkID
	}{
		{"foreign", func(foreign LinkID) LinkID { return foreign }},
		{"out of range", func(foreign LinkID) LinkID { return foreign + 1 }},
		{"negative", func(LinkID) LinkID { return -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			p := &pinger{remaining: 1}
			pid := e.Register(p)
			rid := e.Register(&recorder{})
			p.out = c.out(e.Connect(rid, pid, 1))
			e.ScheduleAt(0, pid, Payload{})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic for a link the sender does not own")
				}
				if msg, _ := r.(string); !strings.Contains(msg, "does not own link") {
					t.Fatalf("panic %v does not name the link", r)
				}
			}()
			e.Run()
		})
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	id := e.Register(&recorder{})
	e.ScheduleAt(10, id, Payload{})
	e.Run()
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
	e.Connect(aid, bid, 7)
	b.out = e.Connect(bid, aid, 7)
	e.ScheduleAt(0, bid, Payload{})
	e.Run()
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

func TestNegativeLinkLatencyPanics(t *testing.T) {
	e := NewEngine()
	a := e.Register(&recorder{})
	b := e.Register(&recorder{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Connect(a, b, -1)
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
	e.Run()
}

type registrar struct{ eng *Engine }

func (r *registrar) HandleEvent(ctx *Context, ev Event) {
	r.eng.Register(&recorder{})
}

// TestEventLayout pins the compact event: at most 48 bytes, copied by
// value through the heap, and free of anything the garbage collector
// must trace. The pointer-free walk is what lets the queue leave stale
// slots in its spare capacity without pinning memory.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 48 {
		t.Errorf("Event is %d bytes, want <= 48", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s; events must hold no pointers", path, typ.Kind())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
	walk("Payload", reflect.TypeOf(Payload{}))
}
