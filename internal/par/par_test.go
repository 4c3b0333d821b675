package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"besst/internal/stats"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, req := range []int{0, -1, -100} {
		if got := Workers(req); got != want {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS %d", req, got, want)
		}
	}
}

func TestSeedFanMatchesSerialDrawOrder(t *testing.T) {
	const master, n = 42, 16
	seeds := SeedFan(master, n)
	rng := stats.NewRNG(master)
	for i, s := range seeds {
		if want := rng.Uint64(); s != want {
			t.Fatalf("seed %d = %d, want %d (serial draw order)", i, s, want)
		}
	}
	again := SeedFan(master, n)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("SeedFan not deterministic")
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 500
		counts := make([]atomic.Int32, n)
		ForEach(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachRespectsConcurrencyBound(t *testing.T) {
	const workers, n = 3, 200
	var active, peak atomic.Int32
	ForEach(workers, n, func(i int) {
		a := active.Add(1)
		for {
			p := peak.Load()
			if a <= p || peak.CompareAndSwap(p, a) {
				break
			}
		}
		// Hold the slot long enough for other workers to pile in if the
		// bound were broken.
		for j := 0; j < 2000; j++ {
			_ = j * j
		}
		active.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, bound is %d", p, workers)
	}
}

func TestForEachPropagatesPanicValue(t *testing.T) {
	sentinel := errors.New("boom")
	// The panic hits the first index, so it must also stop new work:
	// only a small prefix of the index space may run before every
	// worker sees the stop.
	const n = 100000
	var calls atomic.Int64
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if r != sentinel {
			t.Fatalf("panic value %v, want original sentinel", r)
		}
		if c := calls.Load(); c >= n {
			t.Fatalf("pool did not stop after the panic: %d calls", c)
		}
	}()
	ForEach(4, n, func(i int) {
		calls.Add(1)
		if i == 0 {
			panic(sentinel)
		}
	})
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	ForEach(4, 0, func(int) { called = true })
	ForEach(4, -5, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty index space")
	}
}

// TestForEachIsolatedCapturesPanics is the regression gate for worker
// panics: before ForEachIsolated, a panicking work item either took
// down the process or (via ForEach) aborted the whole campaign. Run
// under -race it also proves the per-index error slots are written
// race-free.
func TestForEachIsolatedCapturesPanics(t *testing.T) {
	for _, workers := range []int{1, 8} {
		const n = 64
		var ran atomic.Int64
		errs := ForEachIsolated(workers, n, func(i int) error {
			ran.Add(1)
			if i%7 == 3 {
				panic(fmt.Sprintf("poison %d", i))
			}
			if i%10 == 9 {
				return errors.New("soft failure")
			}
			return nil
		})
		if got := ran.Load(); got != n {
			t.Fatalf("workers=%d: %d items ran, want %d (isolation must not stop the pool)", workers, got, n)
		}
		if len(errs) != n {
			t.Fatalf("workers=%d: %d error slots, want %d", workers, len(errs), n)
		}
		for i, err := range errs {
			switch {
			case i%7 == 3:
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("workers=%d: index %d: err = %v, want *PanicError", workers, i, err)
				}
				if pe.Index != i || len(pe.Stack) == 0 {
					t.Fatalf("workers=%d: index %d: PanicError missing provenance: %+v", workers, i, pe)
				}
			case i%10 == 9:
				if err == nil || err.Error() != "soft failure" {
					t.Fatalf("workers=%d: index %d: err = %v, want soft failure", workers, i, err)
				}
			default:
				if err != nil {
					t.Fatalf("workers=%d: index %d: unexpected error %v", workers, i, err)
				}
			}
		}
	}
}

func TestForEachIsolatedEmpty(t *testing.T) {
	if errs := ForEachIsolated(4, 0, func(int) error { return errors.New("x") }); errs != nil {
		t.Fatalf("empty index space returned %v", errs)
	}
}

// TestSplitGeometry checks the shard invariants Split promises:
// ranges are contiguous, in order, cover exactly [0, n), are never
// empty, and differ in size by at most one.
func TestSplitGeometry(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for _, k := range []int{-1, 0, 1, 2, 3, 7, n, n + 5, 100} {
			ranges := Split(n, k)
			if n == 0 {
				if ranges != nil {
					t.Fatalf("Split(0, %d) = %v, want nil", k, ranges)
				}
				continue
			}
			wantK := k
			if wantK <= 0 {
				wantK = 1
			}
			if wantK > n {
				wantK = n
			}
			if len(ranges) != wantK {
				t.Fatalf("Split(%d, %d) returned %d ranges, want %d", n, k, len(ranges), wantK)
			}
			lo, minLen, maxLen := 0, n, 0
			for _, r := range ranges {
				if r.Lo != lo {
					t.Fatalf("Split(%d, %d): gap or overlap at %v (want lo %d)", n, k, r, lo)
				}
				if r.Len() <= 0 {
					t.Fatalf("Split(%d, %d): empty range %v", n, k, r)
				}
				if r.Len() < minLen {
					minLen = r.Len()
				}
				if r.Len() > maxLen {
					maxLen = r.Len()
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("Split(%d, %d) covers [0, %d), want [0, %d)", n, k, lo, n)
			}
			if maxLen-minLen > 1 {
				t.Fatalf("Split(%d, %d): uneven shards (sizes %d..%d)", n, k, minLen, maxLen)
			}
		}
	}
}

// TestSplitDeterministic pins the exact geometry shards are addressed
// by: coordinator and workers must always agree on Split(n, k).
func TestSplitDeterministic(t *testing.T) {
	got := Split(10, 4)
	want := []Range{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	if len(got) != len(want) {
		t.Fatalf("Split(10, 4) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Split(10, 4) = %v, want %v", got, want)
		}
	}
}
