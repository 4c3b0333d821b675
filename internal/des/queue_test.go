package des

import (
	"sort"
	"testing"
)

// TestEventQueueOrdering drains a queue filled with heavily tied
// timestamps and checks pops come out in exact (Time, seq) order
// against a reference sort — the determinism contract the inlined
// 4-ary heap must uphold.
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
