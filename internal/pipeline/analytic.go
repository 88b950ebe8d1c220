package pipeline

import (
	"time"
)

// AnalyticSim replays the loader semantics on virtual time so the cluster
// simulator can evaluate thousand-rank data waits without wall-clock sleeps.
// Given per-batch preparation times, a worker count and the trainer's step
// time, it returns for each training step how long the trainer waited for
// its batch.
//
// Like the real loaders, workers run at most Prefetch batches ahead of the
// consumer (PyTorch's prefetch_factor bound): a slow batch therefore has at
// most Prefetch steps of slack before it blocks the blocking loader.
type AnalyticSim struct {
	PrepTimes []time.Duration
	Workers   int
	// Prefetch bounds how far issuance may run ahead of consumption;
	// 0 means 2×Workers (the loaders' default).
	Prefetch int
	// NonBlocking selects the §3.2 ready-first semantics; otherwise strict
	// sampler order (PyTorch default).
	NonBlocking bool
}

// Timeline holds the simulated delivery schedule.
type Timeline struct {
	// DeliverAt[k] is when the k-th consumed batch was handed to the trainer.
	DeliverAt []time.Duration
	// Wait[k] is how long the trainer idled before receiving batch k.
	Wait []time.Duration
	// YieldOrder[k] is the sampler index of the k-th delivered batch
	// (identity for the blocking loader, possibly permuted otherwise).
	YieldOrder []int
}

// TotalWait sums the trainer's idle time.
func (t *Timeline) TotalWait() time.Duration {
	var s time.Duration
	for _, w := range t.Wait {
		s += w
	}
	return s
}

// Run simulates an epoch where the trainer consumes one batch per step and
// each step takes stepTime of compute after its batch arrives.
func (a AnalyticSim) Run(stepTime time.Duration) *Timeline {
	n := len(a.PrepTimes)
	w := a.Workers
	if w < 1 {
		w = 1
	}
	pf := a.Prefetch
	if pf <= 0 {
		pf = 2 * w
	}
	tl := &Timeline{
		DeliverAt:  make([]time.Duration, 0, n),
		Wait:       make([]time.Duration, 0, n),
		YieldOrder: make([]int, 0, n),
	}

	workerFree := make([]time.Duration, w)
	readyAt := make([]time.Duration, n)
	issued := 0
	consumed := 0
	consumedSet := make([]bool, n)
	consumeTime := make([]time.Duration, n)
	var trainFree time.Duration

	issue := func() {
		for issued < n && issued < consumed+pf {
			// Credit: batch `issued` may start once batch issued-pf has been
			// consumed (its queue slot freed).
			var credit time.Duration
			if issued >= pf {
				credit = consumeTime[issued-pf]
			}
			wi := 0
			for j := 1; j < w; j++ {
				if workerFree[j] < workerFree[wi] {
					wi = j
				}
			}
			start := workerFree[wi]
			if credit > start {
				start = credit
			}
			readyAt[issued] = start + a.PrepTimes[issued]
			workerFree[wi] = readyAt[issued]
			issued++
		}
	}

	for consumed < n {
		issue()
		var pick = -1
		var deliver time.Duration
		if a.NonBlocking {
			// Lowest-index batch ready by trainFree; else earliest-ready.
			for i := 0; i < issued; i++ {
				if !consumedSet[i] && readyAt[i] <= trainFree {
					pick = i
					break
				}
			}
			if pick == -1 {
				var earliest time.Duration
				for i := 0; i < issued; i++ {
					if consumedSet[i] {
						continue
					}
					if pick == -1 || readyAt[i] < earliest {
						pick = i
						earliest = readyAt[i]
					}
				}
				deliver = earliest
				// Among batches ready at `deliver`, take the lowest index.
				for i := 0; i < issued; i++ {
					if !consumedSet[i] && readyAt[i] <= deliver && i < pick {
						pick = i
					}
				}
			} else {
				deliver = trainFree
			}
		} else {
			// Strict order: the next index, whenever it is ready.
			pick = consumed // next in order among non-consumed == consumed
			for consumedSet[pick] {
				pick++
			}
			deliver = readyAt[pick]
			if trainFree > deliver {
				deliver = trainFree
			}
		}
		consumedSet[pick] = true
		tl.DeliverAt = append(tl.DeliverAt, deliver)
		tl.Wait = append(tl.Wait, deliver-trainFree)
		tl.YieldOrder = append(tl.YieldOrder, pick)
		consumeTime[consumed] = deliver
		consumed++
		trainFree = deliver + stepTime
	}
	return tl
}
