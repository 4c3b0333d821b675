// Package hotfix exercises the hotalloc check: functions opted into the
// hot path with //lint:hotpath must not allocate — no fmt, no string
// concatenation, no map/new/composite-literal construction, no
// capacity-blind append, no escaping closure captures, no interface
// boxing of concrete values. Field-backed buffers, explicit-capacity
// make targets, and //lint:ignore with a reason are the sanctioned
// outs.
package hotfix

import "fmt"

type ring struct {
	buf  []int
	sink any
}

// push appends into the reused field buffer (clean) and into two
// fresh locals (one blind, one with capacity evidence).
//
//lint:hotpath
func (r *ring) push(v int) {
	r.buf = append(r.buf, v)
	tmp := []int{}
	tmp = append(tmp, v)
	scratch := make([]int, 0, 8)
	scratch = append(scratch, v)
	r.sink = v
	_, _ = tmp, scratch
}

// label formats on the hot path.
//
//lint:hotpath
func label(id int) string {
	s := fmt.Sprint(id)
	return "ev-" + s
}

// build constructs on the hot path.
//
//lint:hotpath
func build() {
	p := new(ring)
	m := map[int]int{}
	q := &ring{}
	_, _, _ = p, m, q
}

// capture returns a closure over its argument.
//
//lint:hotpath
func capture(n int) func() int {
	f := func() int { return n }
	return f
}

// refill is hot but its once-per-epoch table rebuild is sanctioned
// with a reasoned suppression; the panic path is exempt wholesale.
//
//lint:hotpath
func refill(r *ring, epoch int) {
	if epoch < 0 {
		panic(fmt.Sprintf("refill: negative epoch %d", epoch))
	}
	//lint:ignore hotalloc the index is rebuilt once per epoch, not per event
	idx := map[int]int{}
	for i, v := range r.buf {
		idx[v] = i
	}
}

// cold is not annotated: it may allocate freely.
func cold() map[int]int { return map[int]int{} }

//lint:hotpath
var notAFunc int

//lint:hotpath on the wrong line with arguments
func misuse() {}

// reuse appends into two-index reslices of the field buffer and of a
// capacity-evidenced local (clean), of a parameter with no capacity
// evidence, and into a full slice expression capped at zero.
//
//lint:hotpath
func (r *ring) reuse(v int, in []int) []int {
	r.buf = append(r.buf[:0], v)
	scratch := r.buf[1:]
	scratch = append(scratch[:0], v)
	in = append(in[:0], v)
	r.buf = append(r.buf[:0:0], v)
	_ = scratch
	return in
}
