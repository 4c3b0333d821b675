package des

// eventQueue is a run-coalescing priority queue over events, ordered by
// (Time, seq) so simultaneous events are processed in schedule order
// and runs stay bit-reproducible.
//
// A push whose Time equals that of the most recent push extends that
// push's run; any other push starts a new tail run, and the old tail
// (if it still holds events) moves into a 4-ary min-heap of runs keyed
// by (time, seq). The order is exact because seqs are stamped in push
// order: a run holds consecutive pushes, so it is already FIFO in
// (Time, seq), and every other event at the same time has a seq outside
// the run's range. Any one seq of a run therefore orders it against
// every other run, and the key can stay the seq of its first event:
// popping a run's head leaves the run where it was in the heap, so it
// needs no sift, and only an exhausted run leaves the heap. pop and
// peek take the smaller of the tail and the heap top.
//
// That shape fits the collective traffic of a compiled BE-SST program:
// a coordinator releases every rank at one timestamp and each release's
// follow-on arrival lands at the same time again, so those events never
// touch the heap — only events with distinct times (compute self
// events) are sifted.
//
// Runs live contiguously in one event log. A push that would grow a
// full log first compacts it (copying the live runs to the front of a
// spare buffer) whenever the log is at least twice the pending count
// plus 64, so the backing capacity stays within about 4x the peak
// pending count plus 128, however many events a run schedules. Events
// hold no pointers, so dead slots pin nothing.
type eventQueue struct {
	log   []Event // run storage; the tail run always ends the log
	spare []Event // compaction target, swapped with log
	runs  []run   // 4-ary min-heap of every non-empty run but the tail
	tail  run     // the run the most recent push joined
	n     int     // pending events
}

// run is a block of events with one timestamp and consecutive seqs,
// stored at log[head:end]. seq is the seq of the run's first event, so
// runs compare without touching the log.
type run struct {
	t         Time
	seq       uint64
	head, end int
}

// compactSlack is the log length, beyond twice the pending count, that a
// full log may reach before a push compacts it instead of growing it.
const compactSlack = 64

// runBefore orders runs: earlier time first, then lower seq.
//
//lint:hotpath
func runBefore(a, b *run) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// len returns the number of queued events.
//
//lint:hotpath
func (q *eventQueue) len() int { return q.n }

// reset empties the queue, keeping the log, spare and heap capacity for
// reuse across trials.
//
//lint:hotpath
func (q *eventQueue) reset() {
	q.log = q.log[:0]
	q.runs = q.runs[:0]
	q.tail = run{}
	q.n = 0
}

// front returns the run holding the minimum event: the tail when it is
// non-empty and sorts before the heap top, else the heap top. The queue
// must be non-empty.
//
//lint:hotpath
func (q *eventQueue) front() *run {
	if t := &q.tail; t.head < t.end && (len(q.runs) == 0 || runBefore(t, &q.runs[0])) {
		return t
	}
	return &q.runs[0]
}

// peek returns the minimum event without removing it. The queue must be
// non-empty.
//
//lint:hotpath
func (q *eventQueue) peek() *Event { return &q.log[q.front().head] }

// push inserts ev, whose seq must exceed that of every earlier push.
//
// The log slot is written field by field from the argument registers.
// A whole-struct store (append(q.log, ev)) makes the compiler spill ev
// with 8-byte stores and copy it back with 16-byte loads that span two
// of them, which the CPU cannot forward from its store buffer: every
// push would stall until the spill reached the cache.
//
//lint:hotpath
func (q *eventQueue) push(ev Event) {
	if len(q.log) == cap(q.log) {
		if len(q.log) >= 2*q.n+compactSlack {
			q.compact()
		}
		if len(q.log) == cap(q.log) {
			q.log = append(q.log, Event{})[:len(q.log)]
		}
	}
	i := len(q.log)
	t := &q.tail
	if ev.Time != t.t {
		if t.head < t.end {
			q.pushRun(*t)
		}
		*t = run{t: ev.Time, seq: ev.seq, head: i, end: i}
	}
	q.log = q.log[:i+1]
	s := &q.log[i]
	s.Time = ev.Time
	s.Dst = ev.Dst
	s.Payload.Kind = ev.Payload.Kind
	s.Payload.A = ev.Payload.A
	s.Payload.B = ev.Payload.B
	s.seq = ev.seq
	t.end++
	q.n++
}

// pop removes the minimum event and returns its slot in the log, so the
// caller reads the fields it needs instead of copying the event out
// whole. The slot is valid only until the next push, which may compact
// the log and reuse it. The queue must be non-empty.
//
//lint:hotpath
func (q *eventQueue) pop() *Event {
	r := q.front()
	ev := &q.log[r.head]
	r.head++
	q.n--
	if r.head == r.end && r != &q.tail {
		q.popRun()
	}
	return ev
}

// pushRun inserts r into the run heap.
//
//lint:hotpath
func (q *eventQueue) pushRun(r run) {
	a := append(q.runs, r)
	q.runs = a
	// Sift up: move the hole toward the root until the parent sorts
	// before the new run.
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !runBefore(&r, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = r
}

// popRun removes the heap's top run. The heap must be non-empty.
//
//lint:hotpath
func (q *eventQueue) popRun() {
	a := q.runs
	last := len(a) - 1
	r := a[last]
	a = a[:last]
	q.runs = a
	if last == 0 {
		return
	}
	// Sift down: move the hole from the root toward the leaves, pulling
	// up the smallest of up to four children at each level.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		m := first
		end := min(first+4, last)
		for c := first + 1; c < end; c++ {
			if runBefore(&a[c], &a[m]) {
				m = c
			}
		}
		if !runBefore(&a[m], &r) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = r
}

// compact copies every live run to the front of the spare buffer, tail
// last, and swaps the buffers. Heap keys are unchanged, so the heap
// stays ordered.
//
//lint:hotpath
func (q *eventQueue) compact() {
	buf := q.spare[:0]
	for i := range q.runs {
		r := &q.runs[i]
		start := len(buf)
		buf = append(buf, q.log[r.head:r.end]...)
		r.head, r.end = start, len(buf)
	}
	start := len(buf)
	buf = append(buf, q.log[q.tail.head:q.tail.end]...)
	q.tail.head, q.tail.end = start, len(buf)
	q.log, q.spare = buf, q.log[:0]
}
