package des

import "fmt"

// Payload is the typed content of an event. Kind is a component-defined
// message tag and A/B carry two integer arguments inline, so the common
// protocol messages of a simulation travel without heap allocation.
// Data is the escape hatch for arbitrary values; storing a non-nil Data
// boxes it into the interface at the sender — exactly the per-event
// allocation the typed fields exist to avoid — so hot-path protocols
// should encode into Kind/A/B and leave Data nil.
type Payload struct {
	Kind int32
	A, B int64
	Data any
}

// Event is a timestamped message delivered to a component.
type Event struct {
	Time    Time
	Dst     ComponentID
	SrcPort string // name of the link/port the event arrived on ("" for self events)
	Payload Payload

	seq uint64 // FIFO tie-breaker for deterministic ordering
}

// ComponentID identifies a component registered with an engine.
type ComponentID int

// Component is the unit of simulation. HandleEvent is invoked once per
// delivered event with the engine's clock already advanced to the event
// time. Components react by scheduling self events and sending on links.
type Component interface {
	// HandleEvent processes one event. ctx provides scheduling and
	// link-send operations valid only for the duration of the call;
	// implementations must not retain ctx (the engine reuses one
	// Context across all dispatches).
	HandleEvent(ctx *Context, ev Event)
}

// Context gives a component access to the engine during HandleEvent.
type Context struct {
	eng *Engine
	id  ComponentID
	now Time
}

// Now returns the current simulated time.
func (c *Context) Now() Time { return c.now }

// Self returns the handling component's ID.
func (c *Context) Self() ComponentID { return c.id }

// ScheduleSelf enqueues an event for the handling component after delay.
func (c *Context) ScheduleSelf(delay Time, payload Payload) {
	if delay < 0 {
		panic("des: negative delay")
	}
	c.eng.schedule(Event{Time: c.now + delay, Dst: c.id, Payload: payload})
}

// Send delivers payload over the named outgoing link of the handling
// component. Delivery occurs after the link's configured latency plus
// extra. It panics if the component has no such link: wiring errors are
// construction bugs, not runtime conditions.
func (c *Context) Send(port string, extra Time, payload Payload) {
	l, ok := c.eng.link(c.id, port)
	if !ok {
		panic(fmt.Sprintf("des: component %d has no link %q", c.id, port))
	}
	if extra < 0 {
		panic("des: negative extra latency")
	}
	c.eng.schedule(Event{
		Time:    c.now + l.latency + extra,
		Dst:     l.dst,
		SrcPort: l.dstPort,
		Payload: payload,
	})
}

// LinkLatency reports the configured latency of one of the handling
// component's outgoing links.
func (c *Context) LinkLatency(port string) Time {
	l, ok := c.eng.link(c.id, port)
	if !ok {
		panic(fmt.Sprintf("des: component %d has no link %q", c.id, port))
	}
	return l.latency
}

type portKey struct {
	src  ComponentID
	port string
}

type halfLink struct {
	dst     ComponentID
	dstPort string
	latency Time
}

// Engine is the sequential discrete-event simulator. Construct with
// NewEngine, register components and links, seed initial events with
// ScheduleAt, then call Run. A finished engine can be rewound with
// Reset and rerun, reusing its components, links, and queue capacity.
type Engine struct {
	components []Component
	links      map[portKey]halfLink
	queue      eventQueue
	ctx        Context // reused across dispatches; one escape, not one per event
	now        Time
	seq        uint64
	processed  uint64
	running    bool
	tracer     Tracer // nil unless SetTracer was called
	stream     int    // stream tag passed to every tracer hook
	peakQueue  int
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{links: make(map[portKey]halfLink)}
	e.ctx.eng = e
	return e
}

// Register adds a component and returns its ID.
func (e *Engine) Register(c Component) ComponentID {
	if e.running {
		panic("des: Register during Run")
	}
	e.components = append(e.components, c)
	return ComponentID(len(e.components) - 1)
}

// Connect wires a unidirectional link from src's port srcPort to dst's
// port dstPort with the given latency. Events sent on srcPort arrive at
// dst tagged with dstPort.
func (e *Engine) Connect(src ComponentID, srcPort string, dst ComponentID, dstPort string, latency Time) {
	if latency < 0 {
		panic("des: negative link latency")
	}
	key := portKey{src, srcPort}
	if _, dup := e.links[key]; dup {
		panic(fmt.Sprintf("des: duplicate link %d/%q", src, srcPort))
	}
	e.links[key] = halfLink{dst: dst, dstPort: dstPort, latency: latency}
}

// ConnectBidirectional wires a:aPort <-> b:bPort with equal latency.
func (e *Engine) ConnectBidirectional(a ComponentID, aPort string, b ComponentID, bPort string, latency Time) {
	e.Connect(a, aPort, b, bPort, latency)
	e.Connect(b, bPort, a, aPort, latency)
}

// ScheduleAt enqueues an initial event for dst at absolute time t.
func (e *Engine) ScheduleAt(t Time, dst ComponentID, payload Payload) {
	if t < e.now {
		panic("des: scheduling into the past")
	}
	e.schedule(Event{Time: t, Dst: dst, Payload: payload})
}

func (e *Engine) schedule(ev Event) {
	if ev.Time < e.now {
		panic("des: scheduling into the past")
	}
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	if e.queue.len() > e.peakQueue {
		e.peakQueue = e.queue.len()
	}
	if e.tracer != nil {
		e.tracer.EventQueued(e.stream, int(ev.Dst), int64(e.now), int64(ev.Time))
	}
}

func (e *Engine) link(src ComponentID, port string) (halfLink, bool) {
	l, ok := e.links[portKey{src, port}]
	return l, ok
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events delivered since construction
// or the last Reset.
func (e *Engine) Processed() uint64 { return e.processed }

// PeakQueueDepth returns the deepest the event queue ever grew — the
// engine tracks it unconditionally (one comparison per schedule) so
// run metrics are available even without a tracer.
func (e *Engine) PeakQueueDepth() int { return e.peakQueue }

// SetTracer attaches a lifecycle tracer; nil detaches. stream tags
// every hook from this engine, letting runs that share one tracer
// (e.g. Monte Carlo trials) stay distinguishable in the trace. Must
// not be called while Run is in progress.
func (e *Engine) SetTracer(t Tracer, stream int) {
	if e.running {
		panic("des: SetTracer during Run")
	}
	e.tracer = t
	e.stream = stream
}

// Reset rewinds the engine to time zero for another run: pending events
// are discarded and the clock, sequence counter, and metrics counters
// are cleared, while components, links, the tracer, and the queue's
// backing capacity are all kept. This is what lets replication loops
// reuse one wired engine per trial instead of reconstructing it.
func (e *Engine) Reset() {
	if e.running {
		panic("des: Reset during Run")
	}
	e.queue.reset()
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.peakQueue = 0
}

// Run processes events in timestamp order until the queue is empty or
// the horizon is passed (horizon <= 0 means no horizon). It returns the
// final simulated time.
func (e *Engine) Run(horizon Time) Time {
	e.running = true
	defer func() { e.running = false }()
	for e.queue.len() > 0 {
		if horizon > 0 && e.queue.peek().Time > horizon {
			// Leave the event queued; the clock stops at the horizon.
			e.now = horizon
			return e.now
		}
		ev := e.queue.pop()
		if ev.Time < e.now {
			panic("des: event queue went backwards")
		}
		e.now = ev.Time
		e.dispatch(ev)
	}
	return e.now
}

func (e *Engine) dispatch(ev Event) {
	dst := int(ev.Dst)
	if dst < 0 || dst >= len(e.components) {
		panic(fmt.Sprintf("des: event for unknown component %d", ev.Dst))
	}
	e.ctx.id = ev.Dst
	e.ctx.now = e.now
	if e.tracer != nil {
		e.tracer.EventDispatch(e.stream, dst, int64(e.now))
		e.components[dst].HandleEvent(&e.ctx, ev)
		e.tracer.EventReturn(e.stream, int64(e.now))
	} else {
		e.components[dst].HandleEvent(&e.ctx, ev)
	}
	e.processed++
}

// Step processes exactly one event if available, returning false when
// the queue is empty. It is exposed for tests and debugging tooling.
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.Time
	e.dispatch(ev)
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.len() }
