package par

import (
	"bytes"
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, tc := range []struct{ requested, n, want int }{
		{0, 1000, min(cpus, 1000)},
		{-3, 1000, min(cpus, 1000)},
		{4, 2, 2},
		{4, 9, 4},
		{1, 9, 1},
		{3, 0, 1},
	} {
		if got := Workers(tc.requested, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
}

// goid returns the running goroutine's id from its stack header.
func goid() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	return string(b[:bytes.IndexByte(b, ' ')])
}

// TestEachRunsEveryIndexOnce runs 0…n−1 over 1–8 workers and requires
// every index exactly once, and every closure on a single goroutine.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 500
	for workers := 1; workers <= 8; workers++ {
		counts := make([]int32, n)
		owners := make([]string, workers)
		work := make([]func(int), workers)
		for w := range work {
			work[w] = func(i int) {
				if id := goid(); owners[w] == "" {
					owners[w] = id
				} else if owners[w] != id {
					t.Errorf("workers=%d: closure %d ran on goroutines %s and %s", workers, w, owners[w], id)
				}
				atomic.AddInt32(&counts[i], 1)
			}
		}
		if got := Each(context.Background(), n, work); got != n {
			t.Fatalf("workers=%d: dispatched %d, want %d", workers, got, n)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestEachStopsAfterCancellingItem cancels ctx inside item k on a single
// worker: exactly the prefix 0…k must have been dispatched and run, on
// every repeat.
func TestEachStopsAfterCancellingItem(t *testing.T) {
	const n, k = 50, 7
	for rep := 0; rep < 200; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		work := []func(int){func(i int) {
			if i != ran {
				t.Errorf("repeat %d: ran index %d, want %d", rep, i, ran)
			}
			ran++
			if i == k {
				cancel()
			}
		}}
		if got := Each(ctx, n, work); got != k+1 || ran != k+1 {
			t.Fatalf("repeat %d: dispatched %d, ran %d, want %d", rep, got, ran, k+1)
		}
		cancel()
	}
}

// TestEachPreCancelledStartsNothing requires a cancelled context to
// dispatch nothing, whatever the worker count. A dispatcher that only
// selects between a ready worker and the done context picks either at
// random, so the check runs many times.
func TestEachPreCancelledStartsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep := 0; rep < 1000; rep++ {
		for workers := 1; workers <= 8; workers++ {
			var ran atomic.Int32
			work := make([]func(int), workers)
			for w := range work {
				work[w] = func(int) { ran.Add(1) }
			}
			if got := Each(ctx, 10, work); got != 0 || ran.Load() != 0 {
				t.Fatalf("workers=%d: dispatched %d, ran %d after cancel", workers, got, ran.Load())
			}
		}
	}
}
