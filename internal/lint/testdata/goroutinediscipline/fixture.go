// Package gofix exercises the goroutinediscipline check: hand-rolled
// fan-out outside the concurrency scope must be flagged at both
// the go statement and the sync.WaitGroup use.
package gofix

import "sync"

func fanOut(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(w)
	}
	wg.Wait()
}
