package sweep

import (
	"runtime"
	"sync"
	"time"
)

// Cell is one executable scenario: a typed configuration plus its canonical
// fingerprint (the memoization key) and a human-readable label for progress
// display.
type Cell[C any] struct {
	Key    string // canonical scenario fingerprint; "" disables memoization
	Label  string
	Config C
}

// Progress is one streaming progress event, emitted as cells complete.
// Events are serialized (never concurrent) but arrive in completion order,
// which under parallel execution is not cell order.
type Progress struct {
	Done, Total int
	Key         string
	Label       string
	Cached      bool // satisfied from the memoization cache
	// Elapsed is the wall time this cell took in this call: the compute
	// time when it ran, near zero for a settled cache hit, or the time
	// spent blocked on another worker's in-flight computation of the same
	// key (singleflight).
	Elapsed time.Duration
}

// Engine executes cells across a bounded worker pool. The zero value runs
// with GOMAXPROCS workers, no memoization and no progress reporting.
type Engine[C, R any] struct {
	// Workers bounds the goroutine pool; <= 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoizes results by Cell.Key across Run calls
	// (and across engines sharing the cache).
	Cache *Cache[R]
	// OnProgress, when non-nil, streams one event per completed cell.
	OnProgress func(Progress)
	// OnResult, when non-nil, receives each cell's index and result as the
	// cell completes. Calls arrive in completion order (not cell order) but
	// are serialized with each other and with OnProgress; for a given cell,
	// OnResult fires immediately before its OnProgress event. cached matches
	// Progress.Cached.
	OnResult func(i int, r R, cached bool)
}

// Run executes every cell and returns the results in cell order — the order
// is a function of the input alone, never of scheduling, so emitted output
// is byte-identical for any worker count. run receives the whole cell, key
// included. Results of cells sharing a Key are computed once when a Cache is
// set.
func (e Engine[C, R]) Run(cells []Cell[C], run func(Cell[C]) R) []R {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]R, len(cells))
	var progressMu sync.Mutex
	done := 0
	report := func(i int, cached bool, elapsed time.Duration) {
		if e.OnProgress == nil && e.OnResult == nil {
			return
		}
		progressMu.Lock()
		done++
		if e.OnResult != nil {
			e.OnResult(i, results[i], cached)
		}
		if e.OnProgress != nil {
			e.OnProgress(Progress{
				Done: done, Total: len(cells),
				Key: cells[i].Key, Label: cells[i].Label,
				Cached: cached, Elapsed: elapsed,
			})
		}
		progressMu.Unlock()
	}
	exec := func(i int) {
		start := time.Now()
		var cached bool
		if e.Cache != nil && cells[i].Key != "" {
			results[i], cached = e.Cache.Do(cells[i].Key, func() R { return run(cells[i]) })
		} else {
			results[i] = run(cells[i])
		}
		report(i, cached, time.Since(start))
	}
	if workers <= 1 {
		for i := range cells {
			exec(i)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				exec(i)
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}
