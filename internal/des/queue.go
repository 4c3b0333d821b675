package des

// eventQueue is a run-coalescing priority queue over events, ordered by
// (Time, seq) so simultaneous events are processed in schedule order
// and runs stay bit-reproducible.
//
// A push whose Time equals that of the most recent push extends that
// push's run; any other push starts a new tail run, and the old tail
// (if it still holds events) joins pend, an unsorted list of the runs
// that left the tail since pend was last emptied. The order is exact
// because seqs are stamped in push order: a run holds consecutive
// pushes, so it is already FIFO in (Time, seq), and every other event
// at the same time has a seq outside the run's range. Any one seq of a
// run therefore orders it against every other run, and the key can
// stay the seq of its first event: popping a run's head leaves the run
// where it was, so it needs no re-sort, and only an exhausted run
// leaves its tier.
//
// Outside the tail a run sits in one of three tiers: pend, a sorted
// batch consumed from its front, or a 4-ary min-heap. pend's least run
// is tracked as runs join it, so it costs nothing until that run is
// the minimum. Then pend is emptied in one go: bucket-sorted into a new
// batch if the last batch has drained (the top and bottom tiers of a
// ladder queue, Tang, Goh & Thng, ACM TOMACS 2005), else pushed into
// the heap. pop and peek take the least of the tail, the batch head
// and the heap top, after that flush.
//
// That shape fits the traffic of a compiled BE-SST program. A
// coordinator releases every rank at one timestamp, so the releases
// are one run that never leaves the tail. Each rank then sends its
// arrival at the next barrier to land when its compute ends, at
// distinct times: all but the last-scheduled one collect in pend and
// drain as one batch, sorted in linear expected time. Nothing is
// pushed until the last arrival, so the last-scheduled one is popped
// from the tail. A compute that does not end at a barrier ends in a
// self event instead; when the last-scheduled one is pushed to pend by
// the first arrival while the batch is still draining, it goes through
// the heap unless it ends the burst.
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
	runs  []run   // 4-ary min-heap of runs
	batch []run   // sorted runs; batch[bi:] are live
	bi    int
	pend  []run   // runs that left the tail, in seq order
	pmin  int     // index of pend's least run
	count []int32 // bucket offsets, scratch for sortPend
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

// reset empties the queue, keeping every buffer's capacity for reuse
// across trials.
//
//lint:hotpath
func (q *eventQueue) reset() {
	q.log = q.log[:0]
	q.runs = q.runs[:0]
	q.batch = q.batch[:0]
	q.bi = 0
	q.pend = q.pend[:0]
	q.tail = run{}
	q.n = 0
}

// front returns the run holding the minimum event: the least of the
// non-empty tail, the batch head and the heap top, once pend's least
// run no longer sorts before it (pend is flushed at most once). The
// queue must be non-empty.
//
//lint:hotpath
func (q *eventQueue) front() *run {
	for {
		var r *run
		if t := &q.tail; t.head < t.end {
			r = t
		}
		if q.bi < len(q.batch) && (r == nil || runBefore(&q.batch[q.bi], r)) {
			r = &q.batch[q.bi]
		}
		if len(q.runs) > 0 && (r == nil || runBefore(&q.runs[0], r)) {
			r = &q.runs[0]
		}
		if len(q.pend) == 0 || r != nil && !runBefore(&q.pend[q.pmin], r) {
			return r
		}
		q.flush()
	}
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
			if len(q.pend) == 0 || t.t < q.pend[q.pmin].t {
				q.pmin = len(q.pend)
			}
			q.pend = append(q.pend, *t)
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
		if q.bi < len(q.batch) && r == &q.batch[q.bi] {
			q.bi++
		} else {
			q.popRun()
		}
	}
	return ev
}

// flush empties pend: into a new sorted batch when the last one has
// drained, else run by run into the heap.
//
//lint:hotpath
func (q *eventQueue) flush() {
	if q.bi == len(q.batch) {
		q.sortPend()
	} else {
		for i := range q.pend {
			q.pushRun(q.pend[i])
		}
	}
	q.pend = q.pend[:0]
}

// sortPend bucket-sorts pend into the batch. Each run goes to bucket
// (t-lo)*(n-1)/(hi-lo) of n, the interpolation of its time over pend's
// span [lo, hi]. The buckets are scattered stably, and since a later
// bucket never holds an earlier time, an insertion pass with runBefore
// finishes the order exactly; it costs one step per run when the times
// spread evenly. The float interpolation is monotone in t, so rounding
// can only move work to the insertion pass, never change the order.
// pend is in seq order, so a pend with a single time is sorted already.
//
//lint:hotpath
func (q *eventQueue) sortPend() {
	p := q.pend
	n := len(p)
	q.batch, q.bi = append(q.batch[:0], p...), 0
	lo, hi := p[q.pmin].t, p[0].t
	for i := range p {
		hi = max(hi, p[i].t)
	}
	if lo == hi {
		return
	}
	scale := float64(n-1) / float64(uint64(hi)-uint64(lo))
	for len(q.count) <= n {
		q.count = append(q.count, 0)
	}
	count := q.count[:n+1]
	clear(count)
	for i := range p {
		count[bucket(p[i].t, lo, scale, n)+1]++
	}
	for k := 1; k < n; k++ {
		count[k] += count[k-1]
	}
	b := q.batch
	for i := range p {
		k := bucket(p[i].t, lo, scale, n)
		b[count[k]] = p[i]
		count[k]++
	}
	for i := 1; i < n; i++ {
		r := b[i]
		j := i
		for ; j > 0 && runBefore(&r, &b[j-1]); j-- {
			b[j] = b[j-1]
		}
		b[j] = r
	}
}

// bucket returns the bucket of time t in sortPend's interpolation.
//
//lint:hotpath
func bucket(t, lo Time, scale float64, n int) int {
	return min(int(float64(uint64(t)-uint64(lo))*scale), n-1)
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
// last, and swaps the buffers. Run keys are unchanged, so every tier
// stays ordered.
//
//lint:hotpath
func (q *eventQueue) compact() {
	q.spare = q.spare[:0]
	for i := range q.runs {
		q.moveRun(&q.runs[i])
	}
	for i := q.bi; i < len(q.batch); i++ {
		q.moveRun(&q.batch[i])
	}
	for i := range q.pend {
		q.moveRun(&q.pend[i])
	}
	q.moveRun(&q.tail)
	q.log, q.spare = q.spare, q.log[:0]
}

// moveRun appends r's events to the spare buffer and points r at them.
//
//lint:hotpath
func (q *eventQueue) moveRun(r *run) {
	start := len(q.spare)
	q.spare = append(q.spare, q.log[r.head:r.end]...)
	r.head, r.end = start, len(q.spare)
}
