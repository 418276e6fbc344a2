// Package par runs independent, index-owned work items across a fixed
// number of goroutines. The engine's RC analysis, instance build and solve
// fan-outs and the slack-column extraction all share it.
package par

import (
	"sync"
	"sync/atomic"
)

// Workers resolves the effective fan-out width for n independent items:
// workers clamped to [1, n] (1 when n is 0).
func Workers(workers, n int) int {
	return max(1, min(workers, n))
}

// For runs fn over the n items across Workers(workers, n) goroutines,
// claiming items off a single atomic counter (no feeder goroutine, no
// channel handoff per item). worker is the running goroutine's index in
// [0, Workers(workers, n)), so callers can keep per-worker scratch state.
// A non-nil order remaps the claim sequence — claim c runs fn(w, order[c])
// — so callers can front-load expensive items (longest-processing-time
// scheduling); nil means identity. With one worker For is a plain loop on
// the calling goroutine. Item-to-worker binding is nondeterministic under
// contention, which is why fn must touch only index-owned or per-worker
// state.
func For(workers, n int, order []int, fn func(worker, i int)) {
	item := func(c int) int {
		if order != nil {
			return order[c]
		}
		return c
	}
	if workers = Workers(workers, n); workers == 1 {
		for c := 0; c < n; c++ {
			fn(0, item(c))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= n {
					return
				}
				fn(w, item(c))
			}
		}()
	}
	wg.Wait()
}
