// Package par is the one ordered fan-out behind every scenario sweep:
// dataset generation, corpus shards, Phase-II evaluation, profile-only
// scoring and per-column fitting all hand indices 0…n−1 to a fixed set
// of workers and reduce the results in index order, so the outcome never
// depends on scheduling.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count for n items: zero or less
// means runtime.NumCPU(), and the result is clamped to [1, n].
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.NumCPU()
	}
	return max(1, min(requested, n))
}

// Each runs items 0…n−1 over one goroutine per closure in work, which
// must not be empty. Item i runs as work[w](i) for whichever worker w
// takes it, and each closure runs on its own goroutine only, so it may
// hold unshared state (a solver session, a workspace). Indices are
// handed out in order, and ctx is checked before each one: a cancelled
// run starts nothing more, and a worker that sees the cancellation
// stops taking items. Each returns once every worker has exited, with
// the length of the dispatched prefix; every index below it ran exactly
// once and none at or above it ran.
func Each(ctx context.Context, n int, work []func(i int)) (dispatched int) {
	next := make(chan int)
	var wg sync.WaitGroup
	for _, run := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i, ok := <-next
				if !ok {
					return
				}
				run(i)
			}
		}()
	}
	for dispatched < n && ctx.Err() == nil {
		select {
		case next <- dispatched:
			dispatched++
		case <-ctx.Done():
		}
	}
	close(next)
	wg.Wait()
	return dispatched
}
