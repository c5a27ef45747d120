// Package par is the repository's one worker pool: independent items
// fanned out over a bounded set of goroutines, each with its own state.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs do(s, i) for every i in [0, n) over at most workers goroutines
// (<= 0 uses GOMAXPROCS). Each worker makes its state s once with
// newState before its first item (nil newState leaves s at S's zero
// value). Items are handed out in index order, so one worker runs them in
// input order on one goroutine. Once any item fails no further item is
// handed out; Do returns the error of the lowest-index item that failed
// among those that ran.
func Do[S any](n, workers int, newState func() S, do func(s S, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64 // items handed out so far
		mu     sync.Mutex
		errIdx = n
		err    error
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			if newState != nil {
				s = newState()
			}
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if e := do(s, i); e != nil {
					next.Store(int64(n))
					mu.Lock()
					if i < errIdx {
						errIdx, err = i, e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}
