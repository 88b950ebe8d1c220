// Package pipeline implements the data pipelines compared in Figure 5. One
// worker pool serves both: worker goroutines deposit finished batches into
// a priority queue keyed by batch index, and the two loaders differ only in
// what Next may take from it.
//
//   - NewBlocking reproduces the default PyTorch DataLoader contract:
//     batches are delivered strictly in sampler order, so one slow batch
//     stalls the trainer even when later batches are already prepared.
//   - NewNonBlocking is the paper's design (§3.2): Next yields whichever
//     prepared batch has the lowest index *right now* — a slow batch is
//     simply overtaken and delivered later.
//
// The loaders are real concurrent code (goroutines, a condition variable, a
// heap) and are exercised by unit tests and the examples/pipeline demo. The
// cluster simulator uses the analytic twin in analytic.go, which replays the
// same semantics on virtual time so thousand-rank simulations don't need
// wall-clock sleeps.
package pipeline

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Batch is a prepared training batch. Payload is opaque to the pipeline.
type Batch struct {
	Index    int           // position in the sampler order, set by the loader
	PrepTime time.Duration // how long preparation took
	Payload  interface{}
}

// Source produces work items: the sampler order and each item's preparation
// cost. Prepare is called from worker goroutines and must be safe for
// concurrent use.
type Source interface {
	// Len returns the number of batches in the epoch.
	Len() int
	// Prepare builds batch i, blocking for its preparation time.
	Prepare(ctx context.Context, i int) (Batch, error)
}

// Loader yields prepared batches.
type Loader interface {
	// Next blocks until a batch is available. It returns false when the
	// epoch is exhausted or the context is cancelled.
	Next(ctx context.Context) (Batch, bool)
	// Stop cancels workers and releases resources.
	Stop()
}

// loader is the worker pool behind both constructors. Workers prepare
// batches in sampler order and push each onto a min-heap on batch index,
// running at most 2×workers batches ahead of delivery: DataLoader's default
// prefetch_factor of 2 per worker. inOrder selects the blocking delivery
// rule, under which Next pops the heap's head only when it is the next
// batch in sampler order.
type loader struct {
	src     Source
	workers int
	inOrder bool

	mu        sync.Mutex
	cond      *sync.Cond
	pq        batchHeap
	issued    int
	delivered int
	stop      context.CancelFunc
	done      bool
	wg        sync.WaitGroup
}

// NewBlocking starts a loader that delivers batches in strict sampler order:
// workers prefetch ahead, but batch i+1 is not delivered before batch i —
// the Figure 5(i) behaviour.
func NewBlocking(src Source, workers int) Loader { return start(src, workers, true) }

// NewNonBlocking starts a loader that delivers whichever prepared batch has
// the lowest index when Next is called — the priority queue keyed by batch
// index of §3.2. A slow batch never blocks delivery of a ready one.
func NewNonBlocking(src Source, workers int) Loader { return start(src, workers, false) }

func start(src Source, workers int, inOrder bool) *loader {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &loader{src: src, workers: workers, inOrder: inOrder, stop: cancel}
	l.cond = sync.NewCond(&l.mu)
	l.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go l.worker(ctx)
	}
	return l
}

func (l *loader) worker(ctx context.Context) {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		for !l.done && (l.issued >= l.src.Len() || l.issued-l.delivered >= 2*l.workers) {
			l.cond.Wait()
		}
		if l.done || l.issued >= l.src.Len() {
			l.mu.Unlock()
			return
		}
		idx := l.issued
		l.issued++
		l.mu.Unlock()

		b, err := l.src.Prepare(ctx, idx)
		l.mu.Lock()
		if err == nil {
			b.Index = idx
			heap.Push(&l.pq, b)
		} else {
			l.done = true
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Next pops the lowest-index prepared batch, blocking until there is one
// the delivery rule allows. After a Prepare error or a cancellation it
// still delivers what is allowed, then returns false.
func (l *loader) Next(ctx context.Context) (Batch, bool) {
	stopOnCancel := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.done = true
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stopOnCancel()

	l.mu.Lock()
	defer l.mu.Unlock()
	for l.delivered < l.src.Len() {
		if len(l.pq) > 0 && (!l.inOrder || l.pq[0].Index == l.delivered) {
			b := heap.Pop(&l.pq).(Batch)
			l.delivered++
			l.cond.Broadcast()
			return b, true
		}
		if l.done {
			break
		}
		l.cond.Wait()
	}
	return Batch{}, false
}

// Stop cancels the workers and waits for them to exit.
func (l *loader) Stop() {
	l.mu.Lock()
	l.done = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.stop()
	l.wg.Wait()
}

// batchHeap is a min-heap on batch index: the "priority queue, with the
// batches' indices as the associated priorities" of §3.2.
type batchHeap []Batch

func (h batchHeap) Len() int           { return len(h) }
func (h batchHeap) Less(i, j int) bool { return h[i].Index < h[j].Index }
func (h batchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *batchHeap) Push(x any)        { *h = append(*h, x.(Batch)) }
func (h *batchHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	*h = old[:n-1]
	return b
}
