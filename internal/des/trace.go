package des

// Tracer receives engine lifecycle hooks: event dispatch and return,
// and event scheduling (sends and self-schedules). The observability
// layer (internal/obs) implements it; the interface is deliberately
// typed with builtins only so implementations need not import this
// package.
//
// Hook contract:
//
//   - Hooks are informational: implementations must not call back into
//     the engine, and nothing they do can alter simulation results —
//     the engine consults the tracer after its own state transitions
//     are complete.
//   - One engine calls its hooks from a single goroutine, but engines
//     of concurrent Monte Carlo trials may share one tracer, so
//     implementations must be safe for concurrent use.
//   - `stream` distinguishes runs sharing one tracer (e.g. Monte Carlo
//     trials); times are simulated nanoseconds.
//
// The engine holds the tracer behind a nil guard: with no tracer set
// the instrumented paths cost one pointer comparison and allocate
// nothing, preserving the byte-identical replication gate and the
// bench trajectory.
type Tracer interface {
	// EventDispatch fires immediately before a component handles an
	// event; EventReturn fires when the handler returns.
	EventDispatch(stream, comp int, simNs int64)
	EventReturn(stream int, simNs int64)
	// EventQueued fires when an event is scheduled (Send, ScheduleSelf,
	// or an initial ScheduleAt): dst is the destination component,
	// simNs the scheduling time, deliverNs the delivery time.
	EventQueued(stream, dst int, simNs, deliverNs int64)
}
