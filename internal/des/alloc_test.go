package des

import "testing"

// These tests pin the central performance property of the engine
// refactor: once an engine is warmed (queue capacity grown, links
// wired), the steady-state event path — pop, dispatch, schedule, push —
// performs zero heap allocations. Typed payloads keep event content out
// of interfaces, the inlined heap keeps events out of container/heap's
// `any` boxing, and the reused Context kills the per-dispatch escape.
// A regression here silently reintroduces per-event garbage, which is
// exactly what the bench-regression gate exists to catch; this test
// catches it in tier-1 `go test ./...` without running benchmarks.

// allocEcho bounces an event back over its out link while the shared
// countdown is positive, exercising the link-send path.
type allocEcho struct {
	n   *int
	out LinkID
}

func (e *allocEcho) HandleEvent(ctx *Context, ev Event) {
	if *e.n > 0 {
		*e.n--
		ctx.Send(e.out, 0, Payload{Kind: 1, A: int64(*e.n)})
	}
}

func TestSequentialDispatchZeroAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	ea, eb := &allocEcho{n: &n}, &allocEcho{n: &n}
	a := e.Register(ea)
	b := e.Register(eb)
	ea.out = e.Connect(a, b, 1)
	eb.out = e.Connect(b, a, 1)

	const events = 512
	run := func() {
		e.Reset()
		n = events
		e.ScheduleAt(0, a, Payload{A: events})
		e.Run(0)
	}
	// AllocsPerRun invokes run once as warm-up before measuring, which
	// is when the queue's backing array grows to steady-state capacity.
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("sequential dispatch: %.1f allocs/op on a warmed engine, want 0", avg)
	}
}
