package des

// eventQueue is a concrete 4-ary min-heap over events, ordered by
// (Time, seq) so simultaneous events are processed in schedule order
// and runs stay bit-reproducible.
//
// It replaces container/heap on the hot path: the interface-based heap
// boxes every Event into an `any` on Push and back out on Pop — one
// heap allocation per scheduled event — while this queue moves events
// through a single reusable []Event backing array. The 4-ary shape
// halves the tree depth of a binary heap, trading a few extra sibling
// comparisons (cheap: two integer fields) for fewer cache-missing
// levels on sift-down.
type eventQueue struct {
	ev []Event
}

// eventBefore is the strict ordering: earlier time first, then FIFO by
// schedule sequence.
//
//lint:hotpath
func eventBefore(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// len returns the number of queued events.
//
//lint:hotpath
func (q *eventQueue) len() int { return len(q.ev) }

// reset empties the queue, keeping the backing array for reuse across
// trials. Events hold no pointers, so stale slots pin nothing.
//
//lint:hotpath
func (q *eventQueue) reset() { q.ev = q.ev[:0] }

// peek returns the minimum event without removing it. The queue must be
// non-empty.
//
//lint:hotpath
func (q *eventQueue) peek() *Event { return &q.ev[0] }

// push inserts ev.
//
//lint:hotpath
func (q *eventQueue) push(ev Event) {
	a := append(q.ev, ev)
	q.ev = a
	// Sift up: move the hole toward the root until the parent sorts
	// at-or-before the new event.
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(&ev, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
}

// pop removes and returns the minimum event. The queue must be
// non-empty.
//
//lint:hotpath
func (q *eventQueue) pop() Event {
	a := q.ev
	top := a[0]
	last := len(a) - 1
	ev := a[last]
	a = a[:last]
	q.ev = a
	if last == 0 {
		return top
	}
	// Sift down: move the hole from the root toward the leaves, pulling
	// up the smallest of up to four children at each level.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if eventBefore(&a[c], &a[min]) {
				min = c
			}
		}
		if !eventBefore(&a[min], &ev) {
			break
		}
		a[i] = a[min]
		i = min
	}
	a[i] = ev
	return top
}
