package pipeline

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// fakeSource prepares batches by sleeping a scaled-down prep time.
type fakeSource struct {
	prep  []time.Duration
	scale float64 // wall-clock scale factor for tests
}

func (f *fakeSource) Len() int { return len(f.prep) }

func (f *fakeSource) Prepare(ctx context.Context, i int) (Batch, error) {
	d := time.Duration(float64(f.prep[i]) * f.scale)
	select {
	case <-time.After(d):
	case <-ctx.Done():
		return Batch{}, ctx.Err()
	}
	return Batch{Index: i, PrepTime: f.prep[i], Payload: i}, nil
}

func collect(t *testing.T, l Loader, n int) []int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var order []int
	for i := 0; i < n; i++ {
		b, ok := l.Next(ctx)
		if !ok {
			t.Fatalf("loader ended early after %d batches", i)
		}
		order = append(order, b.Index)
	}
	return order
}

func TestBlockingLoaderDeliversInOrder(t *testing.T) {
	// Prep times deliberately inverted: later batches finish first.
	src := &fakeSource{prep: []time.Duration{
		50 * time.Millisecond, 5 * time.Millisecond, 1 * time.Millisecond, 20 * time.Millisecond,
	}, scale: 1}
	l := NewBlocking(src, 4)
	defer l.Stop()
	order := collect(t, l, 4)
	for i, idx := range order {
		if idx != i {
			t.Fatalf("blocking loader yielded out of order: %v", order)
		}
	}
}

func TestNonBlockingLoaderOvertakesSlowBatch(t *testing.T) {
	// Figure 5 scenario: batch "b" (index 1) is slow; batch "c" (index 2)
	// must be yielded before it.
	src := &fakeSource{prep: []time.Duration{
		1 * time.Millisecond,   // a
		300 * time.Millisecond, // b: slow
		5 * time.Millisecond,   // c
		5 * time.Millisecond,
	}, scale: 1}
	l := NewNonBlocking(src, 2)
	defer l.Stop()
	order := collect(t, l, 4)
	posB, posC := -1, -1
	for i, idx := range order {
		if idx == 1 {
			posB = i
		}
		if idx == 2 {
			posC = i
		}
	}
	if posC > posB {
		t.Fatalf("ready batch c was not yielded before slow batch b: %v", order)
	}
	// All batches still delivered exactly once.
	seen := map[int]bool{}
	for _, idx := range order {
		if seen[idx] {
			t.Fatalf("duplicate batch %d in %v", idx, order)
		}
		seen[idx] = true
	}
}

func TestNonBlockingPrefersLowestReadyIndex(t *testing.T) {
	// Several batches become ready while the consumer is slow; they must
	// come out index-ascending (priority queue semantics).
	src := &fakeSource{prep: []time.Duration{
		5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond,
	}, scale: 1}
	l := NewNonBlocking(src, 4)
	defer l.Stop()
	time.Sleep(80 * time.Millisecond) // let all workers finish
	order := collect(t, l, 4)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("ready batches must drain index-ascending: %v", order)
		}
	}
}

func TestLoaderNextAfterExhaustionReturnsFalse(t *testing.T) {
	src := &fakeSource{prep: []time.Duration{time.Millisecond}, scale: 1}
	for _, mk := range []func() Loader{
		func() Loader { return NewBlocking(src, 1) },
		func() Loader { return NewNonBlocking(src, 1) },
	} {
		l := mk()
		collect(t, l, 1)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if _, ok := l.Next(ctx); ok {
			t.Fatal("exhausted loader must return false")
		}
		cancel()
		l.Stop()
	}
}

// gatedSource prepares batch i only once the test closes release[i], so the
// test, not the scheduler, decides when each batch is ready. started[i]
// closes when a worker begins batch i. Batch fail returns an error once
// released, and a batch never released stays in flight until Stop cancels
// it.
type gatedSource struct {
	release, started []chan struct{}
	fail             int
}

func newGatedSource(n, fail int) *gatedSource {
	s := &gatedSource{release: make([]chan struct{}, n), started: make([]chan struct{}, n), fail: fail}
	for i := range s.release {
		s.release[i], s.started[i] = make(chan struct{}), make(chan struct{})
	}
	return s
}

func (s *gatedSource) Len() int { return len(s.release) }

func (s *gatedSource) Prepare(ctx context.Context, i int) (Batch, error) {
	close(s.started[i])
	select {
	case <-s.release[i]:
	case <-ctx.Done():
		return Batch{}, ctx.Err()
	}
	if i == s.fail {
		return Batch{}, errors.New("prepare failed")
	}
	return Batch{Index: i, Payload: i}, nil
}

// TestLoaderPrepareError: when Prepare fails at one index, Next still
// delivers what its rule allows — the blocking loader the batches before the
// failure, the non-blocking one every other prepared batch — then returns
// false, and Stop cancels the batches still in flight. Batches are released
// through gates, so each asserted order is one the rules guarantee: batches
// 0-2 are released and delivered one at a time, 4, 5 and 7 are deposited
// before batch 3 fails, and 6 and 8 are never released.
func TestLoaderPrepareError(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(Source, int) Loader
		want []int
	}{
		{"blocking", NewBlocking, []int{0, 1, 2}},
		{"non-blocking", NewNonBlocking, []int{0, 1, 2, 4, 5, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newGatedSource(9, 3)
			l := tc.mk(src, 3)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var got []int
			next := func() bool {
				b, ok := l.Next(ctx)
				if ok {
					got = append(got, b.Index)
				}
				return ok
			}
			// Each of batches 0-2 is the only ready one when Next runs.
			for i := 0; i < 3; i++ {
				close(src.release[i])
				next()
			}
			// The three workers now hold batches 3, 4 and 5. Release 4, 5
			// and 7 one at a time. A worker starts batch j only once a
			// released batch it held is deposited: with 3 unreleased and
			// three workers, batch 6 starting means 4 is in the heap, 7
			// means 5 is, and 8 means 7 is.
			for _, step := range [][2]int{{4, 6}, {5, 7}, {7, 8}} {
				close(src.release[step[0]])
				select {
				case <-src.started[step[1]]:
				case <-ctx.Done():
					t.Fatalf("batch %d never started (delivered %v)", step[1], got)
				}
			}
			close(src.release[3])
			for next() {
			}
			if ctx.Err() != nil {
				t.Fatalf("Next ended on the context deadline, not the failure (delivered %v)", got)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("delivered %v, want %v", got, tc.want)
			}
			start := time.Now()
			l.Stop()
			if d := time.Since(start); d > time.Second {
				t.Fatalf("Stop took %v", d)
			}
		})
	}
}

func TestLoaderContextCancellation(t *testing.T) {
	src := &fakeSource{prep: []time.Duration{10 * time.Second}, scale: 1}
	l := NewNonBlocking(src, 1)
	defer l.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := l.Next(ctx); ok {
		t.Fatal("cancelled Next must return false")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Next did not honor cancellation promptly")
	}
}

// ---------- analytic twin ----------

func secs(ss ...float64) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = time.Duration(s * float64(time.Second))
	}
	return out
}

func TestAnalyticFigure5Scenario(t *testing.T) {
	// The paper's exact example: two dataloader workers, prep times
	// a=1s, b=7s (slow), c=3s, steps of 5s.
	// Blocking: after step1 finishes at t=6, batch b is not ready until
	// t=7 — the trainer idles 1s. Non-blocking: c (ready at t=4 on worker
	// 1) is yielded at t=6, no idle; b is consumed at t=11.
	prep := secs(1, 7, 3)
	step := 5 * time.Second

	blocking := AnalyticSim{PrepTimes: prep, Workers: 2, NonBlocking: false}.Run(step)
	nonBlocking := AnalyticSim{PrepTimes: prep, Workers: 2, NonBlocking: true}.Run(step)

	if blocking.TotalWait() <= nonBlocking.TotalWait() {
		t.Fatalf("non-blocking must wait less: blocking %v vs non-blocking %v",
			blocking.TotalWait(), nonBlocking.TotalWait())
	}
	// Non-blocking yields c (index 2) before b (index 1).
	order := nonBlocking.YieldOrder
	posB, posC := -1, -1
	for i, idx := range order {
		if idx == 1 {
			posB = i
		}
		if idx == 2 {
			posC = i
		}
	}
	if posC > posB {
		t.Fatalf("analytic non-blocking order wrong: %v", order)
	}
	// Blocking preserves order.
	for i, idx := range blocking.YieldOrder {
		if idx != i {
			t.Fatalf("analytic blocking must be in order: %v", blocking.YieldOrder)
		}
	}
}

func TestAnalyticNonBlockingNeverWorse(t *testing.T) {
	// Property: for any prep-time vector, the non-blocking pipeline's total
	// wait is <= the blocking pipeline's.
	cases := [][]float64{
		{1, 1, 1, 1},
		{10, 1, 1, 1},
		{1, 10, 1, 10, 1},
		{0.1, 50, 0.1, 0.1, 0.1, 0.1},
		{3, 3, 100, 3, 3, 3, 3, 3},
	}
	for _, c := range cases {
		prep := secs(c...)
		for _, workers := range []int{1, 2, 4} {
			b := AnalyticSim{PrepTimes: prep, Workers: workers}.Run(2 * time.Second)
			nb := AnalyticSim{PrepTimes: prep, Workers: workers, NonBlocking: true}.Run(2 * time.Second)
			if nb.TotalWait() > b.TotalWait() {
				t.Fatalf("non-blocking waited more for %v workers=%d: %v > %v",
					c, workers, nb.TotalWait(), b.TotalWait())
			}
		}
	}
}

func TestAnalyticDeliversEveryBatchOnce(t *testing.T) {
	prep := secs(5, 1, 9, 2, 2, 7, 1)
	tl := AnalyticSim{PrepTimes: prep, Workers: 3, NonBlocking: true}.Run(time.Second)
	if len(tl.YieldOrder) != len(prep) {
		t.Fatalf("delivered %d of %d", len(tl.YieldOrder), len(prep))
	}
	seen := map[int]bool{}
	for _, idx := range tl.YieldOrder {
		if seen[idx] {
			t.Fatalf("batch %d delivered twice", idx)
		}
		seen[idx] = true
	}
}

func TestMoreWorkersReduceBlockingWait(t *testing.T) {
	prep := secs(4, 4, 4, 4, 4, 4, 4, 4)
	w1 := AnalyticSim{PrepTimes: prep, Workers: 1}.Run(time.Second).TotalWait()
	w4 := AnalyticSim{PrepTimes: prep, Workers: 4}.Run(time.Second).TotalWait()
	if w4 >= w1 {
		t.Fatalf("more workers should reduce wait: 1w=%v 4w=%v", w1, w4)
	}
}

// TestMeanWait checks the per-step mean data wait of a non-blocking
// timeline: one wait per batch, never negative.
func TestMeanWait(t *testing.T) {
	prep := secs(1, 1, 1, 1)
	tl := AnalyticSim{PrepTimes: prep, Workers: 2, NonBlocking: true}.Run(time.Second)
	if len(tl.Wait) != len(prep) {
		t.Fatalf("got %d waits for %d batches", len(tl.Wait), len(prep))
	}
	if mw := tl.TotalWait() / time.Duration(len(tl.Wait)); mw < 0 {
		t.Fatalf("mean wait %v", mw)
	}
}

// TestMeanWaitPrefetch pins AnalyticSim's prefetch bound, which the cluster
// simulator sets from Options.Prefetch: 0 is exactly the loaders' default
// of 2×workers, and on bursty prep times a tight prefetch=1 bound waits at
// least as long as the default — the queue slot must free before the next
// slow batch may start — while a deep one waits no longer.
func TestMeanWaitPrefetch(t *testing.T) {
	prep := secs(8, 1, 1, 1, 8, 1, 1, 1)
	const workers = 2
	wait := func(prefetch int) time.Duration {
		return AnalyticSim{PrepTimes: prep, Workers: workers, Prefetch: prefetch}.Run(time.Second).TotalWait()
	}
	def := wait(0)
	if got := wait(2 * workers); got != def {
		t.Fatalf("explicit default prefetch must match prefetch=0: %v vs %v", got, def)
	}
	tight := wait(1)
	if tight < def {
		t.Fatalf("prefetch=1 must not wait less than the default bound: %v vs %v", tight, def)
	}
	deep := wait(len(prep))
	if deep > def {
		t.Fatalf("deeper prefetch must not wait more than the default bound: %v vs %v", deep, def)
	}
	if tight == deep {
		t.Fatalf("prefetch bound had no effect on bursty prep times (both %v)", tight)
	}
}
