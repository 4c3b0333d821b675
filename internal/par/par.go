// Package par holds the shared parallel-execution primitives behind
// every concurrent tier of the simulator: a bounded worker pool for
// embarrassingly parallel index spaces (Monte Carlo replications, DSE
// grid cells, benchmarking-campaign combinations) and the deterministic
// seed-fanout helper that makes those tiers bit-reproducible.
//
// The determinism contract is always the same: the caller pre-draws one
// seed per work item from a master RNG *before* any work starts, so the
// random stream a work item consumes depends only on its index — never
// on completion order, worker count, or goroutine scheduling. Running
// with 1 worker and with N workers then produces byte-identical output.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"besst/internal/stats"
)

// Workers resolves a requested worker count: any value <= 0 selects
// runtime.GOMAXPROCS(0), the pool's default concurrency.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// SeedFan pre-draws n trial seeds from a master seed, one per work
// item, in index order. The draw order matches a serial loop pulling
// master.Uint64() once per item, so a parallel caller fanning these
// seeds out reproduces the exact streams of its serial reference.
func SeedFan(master uint64, n int) []uint64 {
	if n < 0 {
		panic("par: negative seed count")
	}
	rng := stats.NewRNG(master)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// Range is a half-open index interval [Lo, Hi) — one shard of an
// n-item work space.
type Range struct {
	Lo, Hi int
}

// Len is the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into at most k contiguous, non-overlapping,
// in-order ranges whose sizes differ by at most one (the first n%k
// ranges get the extra item). It is the deterministic shard geometry of
// distributed campaigns: because SeedFan pre-draws per-index seeds,
// any Split of the same n covers the same per-index work, so shards
// computed by different processes merge back into the byte-identical
// whole regardless of k. Empty ranges are never returned; k <= 0 is
// treated as 1, and k > n collapses to n single-item ranges.
func Split(n, k int) []Range {
	if n <= 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Range, k)
	size, extra := n/k, n%k
	lo := 0
	for i := range out {
		hi := lo + size
		if i < extra {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// ForEach runs fn(i) for every i in [0, n) on a pool of at most
// `workers` goroutines (Workers-resolved, clamped to n). It returns
// once every started call has finished. A panic inside fn stops new
// work, drains the pool — every in-flight call runs to completion —
// and is re-raised on the caller's goroutine with its original value.
// fn must be safe for concurrent invocation when workers > 1.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		wg       sync.WaitGroup
		panicVal any
		panicked bool
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if !panicked {
					panicked, panicVal = true, r
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		fn(i)
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// PanicError is a work-item panic captured by ForEachIsolated: the item
// index, the recovered value, and the goroutine stack at recovery time.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: work item %d panicked: %v", e.Index, e.Value)
}

// ForEachIsolated runs fn(i) for every i in [0, n) like ForEach, but
// with full fault isolation between items: a panic or error in one item
// never stops the others — every index runs exactly once, panics are
// captured as *PanicError instead of crossing the pool boundary, and
// the per-index outcome slice is returned (nil entries succeeded). This
// is the entry point long-running campaigns use so one poison trial
// cannot take down hours of completed work.
func ForEachIsolated(workers, n int, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		errs[i] = fn(i)
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
		return errs
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
