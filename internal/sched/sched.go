// Package sched is the repo's shared job scheduler: a generic bounded
// worker pool with deterministic result ordering. It is a dependency-free
// leaf so every layer can use it — model calibration runs its golden
// sweeps on it, the evaluation engine fans corner jobs out on it, the
// experiment harness runs its per-model DNN protocol on it, and batched
// network evaluation parallelizes through it — without coupling those
// layers to each other.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map applies fn to every item on a bounded worker pool and returns the
// results in input order, regardless of the worker count or scheduling.
// workers <= 0 uses GOMAXPROCS. If any call fails, Map returns nil results
// and the lowest-index error observed; in-flight work finishes but no new
// items start.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]R, n)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				r, err := fn(i, items[i])
				if err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx = i
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Split divides a total worker budget (<= 0 = GOMAXPROCS) across n
// runnable jobs: up to n jobs run concurrently, each granted intra workers
// of internal parallelism, with the first extra jobs granted one more so a
// budget that doesn't divide evenly is not stranded. The sum of grants over
// any jobWorkers concurrent jobs never exceeds the budget (when n <= total
// every job may be in flight and the grants sum to exactly total;
// otherwise intra is 1). A single job gets the whole budget — the case
// that makes a lone golden corner ~Nx faster.
func Split(total, n int) (jobWorkers, intra, extra int) {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	jobWorkers = total
	if jobWorkers > n {
		jobWorkers = n
	}
	if jobWorkers < 1 {
		jobWorkers = 1
	}
	intra = total / jobWorkers
	if intra < 1 {
		intra = 1
	}
	if n <= total {
		extra = total % jobWorkers
	}
	return jobWorkers, intra, extra
}
