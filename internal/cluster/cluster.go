// Package cluster is the discrete multi-rank step simulator: it takes the
// kernel census of package workload, the GPU/CPU models of package gpu, the
// collective models of package comm and the data-pipeline semantics of
// package pipeline, and produces per-step times with a full breakdown —
// GPU compute, exposed CPU launch overhead, data-pipeline waits, collective
// transfer time and imbalance (straggler) waits. The Figure 3 barrier
// ablation and the Figure 7/8 step-time experiments are built on it.
package cluster

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/dap"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/perturb"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Options configures a simulation run.
type Options struct {
	Arch gpu.Arch
	Topo comm.Topology
	CPU  gpu.CPUModel

	// CUDAGraph captures the step into graphs (per recycling scenario),
	// removing per-kernel CPU launch costs and their noise sensitivity.
	CUDAGraph bool
	// NonBlockingPipeline selects the §3.2 loader semantics.
	NonBlockingPipeline bool
	// Workers is the per-rank dataloader worker count.
	Workers int
	// Prefetch bounds how many batches workers may run ahead of the
	// trainer (queue slots). Real OpenFold setups bind 28 CPU threads per
	// GPU and prefetch deep; stalls therefore only appear once step time
	// shrinks enough that the prefetch horizon (Prefetch × step) drops
	// below the prep-time tail — exactly the paper's observation that data
	// loading grows in importance as the step gets faster.
	Prefetch int
	// PrepModel drives per-rank batch preparation times.
	PrepModel dataset.PrepTimeModel

	Seed  int64
	Steps int // steps to average over

	// SimWorkers bounds the goroutines one Simulate call shards its
	// per-rank work across (the data-wait precompute and the per-DP-group
	// sync-interval march); <= 1 runs serially. Every rank owns a private
	// RNG stream, so the result is bit-identical for every value — this is
	// an execution knob, not part of the scenario's identity, and it is
	// deliberately excluded from the scenario fingerprint. Sweeps already
	// parallelize across cells; SimWorkers is for making one big simulation
	// fast.
	SimWorkers int

	// Perturb injects unhealthy-cluster noise: persistent per-rank
	// stragglers, Poisson-arriving transient stalls, and rank failures
	// paid for with a checkpoint-restart. The zero value injects nothing
	// and leaves the simulation bit-identical to a build without the
	// perturbation layer; when enabled, every rank draws from a private
	// perturbation RNG stream (disjoint from the execution-jitter
	// streams), so Results stay bit-identical at any SimWorkers width.
	Perturb perturb.Spec

	// Ablation switches (Figure 3): each idealizes one barrier.
	ZeroLaunchOverhead bool // CPU overhead eliminated
	PerfectBalance     bool // workers synchronized before every collective
	ZeroSerial         bool // serial modules parallelized away
	FlatEfficiency     bool // kernels keep full efficiency at any size
	ZeroCommVolume     bool // DAP collective payloads are free
}

// normalized returns the options with unset tunables replaced by their
// Simulate-time defaults, so that two Options values which simulate
// identically also fingerprint identically.
func (o Options) normalized() Options {
	if o.Steps < 1 {
		o.Steps = 4
	}
	if o.Workers < 1 {
		o.Workers = 10
	}
	if o.Prefetch < 1 {
		o.Prefetch = 32
	}
	o.Perturb = o.Perturb.Normalize()
	return o
}

// DefaultOptions returns a production-like H100 setup.
func DefaultOptions(seed int64) Options {
	return Options{
		Arch:      gpu.H100(),
		Topo:      comm.Eos(),
		CPU:       gpu.DefaultCPUModel(),
		Workers:   10,
		Prefetch:  32,
		PrepModel: dataset.DefaultPrepTimeModel(),
		Seed:      seed,
		Steps:     6,
	}
}

// Breakdown decomposes mean step time.
type Breakdown struct {
	GPUCompute  time.Duration // roofline kernel time (includes serial modules)
	SerialPart  time.Duration // portion of GPUCompute in serial groups
	CPUExposed  time.Duration // launch overhead not hidden behind kernels
	DataWait    time.Duration // trainer idle waiting for batches (mean)
	CommXfer    time.Duration // collective payload transfer time
	CommWait    time.Duration // straggler-induced wait at collectives (mean)
	ClipExposed time.Duration // gradient-clip time not hidden under comm

	// Median-over-steps variants of the stochastic components, robust to
	// the rare multi-ten-second pipeline stalls (used by the Figure 3
	// decomposition, which the paper measured on short profiled runs).
	DataWaitMedian time.Duration
	CommWaitMedian time.Duration
}

// Result is the simulation outcome.
type Result struct {
	MeanStep time.Duration
	// MedianStep is robust to the rare multi-second data-pipeline stalls;
	// step-time microbenchmarks (Figures 7 and 8) report it, while
	// time-to-train accounting uses the mean. It doubles as the p50 of
	// the per-step wall times.
	MedianStep time.Duration
	// P99Step is the ceiling-99th-percentile per-step wall time (the
	// maximum for runs under 100 steps): the tail a perturbed cluster
	// fattens with stalls and restarts.
	P99Step time.Duration
	Break   Breakdown
	Plan    dap.Plan
	// GraphCapture is the one-time CUDA-graph capture cost (all recycling
	// scenarios), paid during initialization — Figure 9's "compilation"
	// share, not steady-state step time.
	GraphCapture time.Duration

	// Perturbation accounting (see Options.Perturb; zero restarts and
	// stall share, goodput 1, on a healthy cluster):

	// Restarts counts steps lost to a rank failure — each added one
	// checkpoint-restart plus a step replay to the wall clock.
	Restarts int
	// StallShare is the mean fraction of a rank's wall time spent in
	// injected transient stalls.
	StallShare float64
	// Goodput is useful step time over wall-clock time: 1 on a healthy
	// run, degraded by restart costs and replayed steps on a failing one.
	Goodput float64
}

// runSharded splits [0, n) into contiguous shards across at most `workers`
// goroutines and blocks until every shard completes. workers <= 1 (or a
// single-item range) runs fn inline on the caller's goroutine — the serial
// path allocates nothing.
func runSharded(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// groupStep is one DAP group's contribution to one step's global barrier:
// the group's end-of-step maximum and sum (for the all-reduce straggler
// accounting), its accumulated intra-group sync waits, and — when a
// perturbation is active — its injected stall time and failed-rank count.
// Durations are integer nanoseconds and fails an integer, so summing
// contributions in any order is exact — which is what makes the
// group-sharded march bit-identical to the serial one.
type groupStep struct {
	max, sum, comm time.Duration
	stall          time.Duration
	fails          int
}

// Simulate runs the step simulation for a program on `ranks` GPUs at the
// given DAP degree.
//
// Hot-path structure (see docs/ARCHITECTURE.md "Simulator hot path"): the
// data-wait precompute asks the dataset layer for sample geometry only —
// no protein is folded, no MSA materialized — and both it and the per-group
// step march shard across Options.SimWorkers goroutines. Per-rank RNG
// streams and per-group state are disjoint, and cross-group reductions sum
// integer nanoseconds, so the Result is bit-identical for every SimWorkers
// value. All step-loop scratch is hoisted and reused: the steady-state loop
// allocates nothing.
func Simulate(prog *workload.Program, ranks, dapDegree int, o Options) Result {
	plan, err := dap.NewPlan(ranks, dapDegree)
	if err != nil {
		panic(err)
	}
	o = o.normalized()
	workers := o.SimWorkers

	// --- Per-step invariants (identical across ranks), one pass over the
	// census: roofline kernel time, serial share, launch count, and the
	// exposed-CPU baseline (launches whose issue cost exceeds the kernel's
	// own duration leave the GPU idle; approximated per group).
	exposeCPU := !o.CUDAGraph && !o.ZeroLaunchOverhead
	var gpuCompute, serialPart, cpuExposedBase time.Duration
	var launches int
	for _, g := range prog.Groups {
		if o.ZeroSerial && g.Serial {
			continue
		}
		perCall := o.Arch.KernelDuration(g.PerCallFlops(), g.PerCallBytes(), o.FlatEfficiency)
		d := time.Duration(g.Calls) * perCall
		gpuCompute += d
		if g.Serial {
			serialPart += d
		}
		launches += g.Calls
		if exposeCPU {
			if gap := o.Arch.LaunchOverhead - perCall; gap > 0 {
				cpuExposedBase += time.Duration(g.Calls) * gap
			}
		}
	}

	// Collective schedule.
	var syncEvents int
	var xferPerStep time.Duration
	for _, s := range prog.Syncs {
		syncEvents += s.Count
		bytes := s.Bytes
		if o.ZeroCommVolume {
			bytes = 0
		}
		xferPerStep += time.Duration(s.Count) * o.Topo.Cost(s.Op, plan.Degree, bytes)
	}

	// Data pipeline waits, per rank: simulate a warmup prefix so the waits
	// reflect steady state (the pipeline is warm after MLPerf's init phase),
	// then keep Steps waits.
	// A leading window lets the prefetch queue fill; a trailing pad keeps
	// the epoch end out of the measurement (the non-blocking loader defers
	// slow batches, and at the very end of an epoch it must finally wait
	// for them — steady-state training doesn't see that).
	// Prep times come from the geometry-only dataset path: the cost model
	// reads nothing but the sample's index, sequence length and MSA size,
	// so no protein is folded and no MSA allocated just to be timed. Ranks
	// are independent (the generator is stateless per index, the timer
	// reseeds per index), so the precompute shards across the worker pool.
	warmup := 16
	if o.Prefetch > warmup {
		warmup = o.Prefetch
	}
	stepEstimate := gpuCompute + cpuExposedBase + xferPerStep
	gen := dataset.NewGenerator(o.Seed + 101)
	epoch := warmup + o.Steps + 16
	// dataWaits is rank-major: rank r's wait for step s at [r*Steps+s].
	dataWaits := make([]time.Duration, ranks*o.Steps)
	runSharded(workers, ranks, func(lo, hi int) {
		gs := gen.Sampler()
		pt := o.PrepModel.Timer()
		prep := make([]time.Duration, epoch)
		for r := lo; r < hi; r++ {
			for k := range prep {
				idx := r*epoch + k
				seqLen, msaSize := gs.Geometry(idx)
				prep[k] = pt.DurationAt(idx, seqLen, msaSize, o.Seed+int64(r))
			}
			tl := pipeline.AnalyticSim{PrepTimes: prep, Workers: o.Workers, Prefetch: o.Prefetch, NonBlocking: o.NonBlockingPipeline}.Run(stepEstimate)
			copy(dataWaits[r*o.Steps:(r+1)*o.Steps], tl.Wait[warmup:warmup+o.Steps])
		}
	})

	var graphCapture time.Duration
	if o.CUDAGraph {
		// All recycling scenarios (1..4 recycles) are captured once during
		// warmup; steady-state steps replay from the cache.
		graphs := gpu.NewGraphCache(0)
		for key := 0; key < 4; key++ {
			graphCapture += graphs.Launch(o.Arch, key, launches, o.CPU, 0)
		}
	}
	intervals := syncEvents + 1

	rankRNGs := make([]*rand.Rand, ranks)
	for r := range rankRNGs {
		rankRNGs[r] = rand.New(rand.NewSource(o.Seed*31 + int64(r)))
	}

	// Perturbation streams: one private RNG stream per rank, disjoint from
	// the execution-jitter streams above, drawn in step order inside the
	// march. Disabled specs allocate nothing and draw nothing, so the
	// unperturbed simulation is bit-identical to a build without this
	// layer.
	perturbed := o.Perturb.Enabled()
	var perturbs []*perturb.Stream
	if perturbed {
		perturbs = make([]*perturb.Stream, ranks)
		for r := range perturbs {
			perturbs[r] = o.Perturb.Stream(o.Seed, r)
		}
	}

	// advance returns the duration of one compute chunk on a rank: the GPU
	// share plus the CPU-exposed share, the latter stretched when a
	// background CPU peak lands in the chunk. CUDA graphs make the CPU share
	// microscopic, which is exactly why they immunize the step against
	// peaks (§3.2).
	peaksPerStep := o.CPU.PeakProb * 2
	// Per-chunk relative jitter: a chunk of K kernels has duration CV of
	// roughly 1/sqrt(K) of the per-kernel CV. Fine-grained DAP sync points
	// mean few kernels per chunk, hence large relative jitter — the reason
	// imbalance dominates the Figure 3 gap at high DAP degrees. CUDA graphs
	// remove the launch-time component of that variance.
	kernelsPerChunk := float64(launches) / float64(intervals)
	if kernelsPerChunk < 1 {
		kernelsPerChunk = 1
	}
	perKernelCV := 0.35
	if o.CUDAGraph {
		perKernelCV = 0.12
	}
	chunkCV := perKernelCV / math.Sqrt(kernelsPerChunk)
	stragglerProb := o.CPU.StragglerProb
	if o.CUDAGraph {
		stragglerProb /= 15
	}
	advance := func(rr *rand.Rand, gpuChunk, cpuChunk time.Duration) time.Duration {
		d := gpuChunk + cpuChunk
		if o.PerfectBalance {
			return d
		}
		// Gaussian execution jitter scaled to the chunk's kernel count.
		d += time.Duration(chunkCV * rr.NormFloat64() * float64(gpuChunk))
		// Background CPU peak pinning this rank's launch thread right
		// before the sync point (§3.1 "slow workers"); exponential delay.
		if stragglerProb > 0 && rr.Float64() < stragglerProb {
			d += time.Duration(rr.ExpFloat64() * float64(o.CPU.StragglerMean))
		}
		if cpuChunk > 0 {
			p := peaksPerStep / float64(intervals)
			if p > 1 {
				p = 1
			}
			if rr.Float64() < p {
				d += time.Duration(o.CPU.PeakStretch * rr.Float64() * float64(cpuChunk))
			}
		}
		if d < 0 {
			d = 0
		}
		return d
	}

	// Per-rank CPU exposure is identical for every rank and every step —
	// it is a scalar, not a per-step buffer.
	var cpuExposedStep time.Duration
	if o.CUDAGraph {
		// Graph replay only: captures happened during init. Python GC still
		// stalls the host between replays until disabled.
		cpuExposedStep = o.Arch.GraphReplayOverhead + gcCost(o.CPU, launches)
	} else if !o.ZeroLaunchOverhead {
		cpuExposedStep = cpuExposedBase + gcCost(o.CPU, launches)
	}

	// --- The step march, sharded by DAP group. Within one step a DAP group
	// interacts only internally (its sync barriers) until the global
	// all-reduce; across steps a rank's only carried state is its private
	// RNG stream. So each group's whole step sequence is independent of
	// every other group's, and groups shard freely across workers: each
	// group marches through all steps, recording its per-step barrier
	// contributions, and a sequential reduction assembles the global
	// all-reduce afterwards. Per-kernel sync marching applies when the DAP
	// degree shards kernels (Degree > 1 with sync events); otherwise each
	// rank is its own group of one advancing in a single chunk.
	march := plan.Degree > 1 && syncEvents > 0
	nGroups, gsize := ranks, 1
	var evCost time.Duration
	if march {
		nGroups, gsize = plan.DPWays, plan.Degree
		// Cost of one sync event (mean over kinds) plus the NCCL kernel
		// launch latency, which CUDA graphs absorb into the graph.
		evCost = xferPerStep / time.Duration(syncEvents)
		if !o.CUDAGraph {
			evCost += 2 * o.Arch.LaunchOverhead
		}
	}
	perRankChunk := gpuCompute / time.Duration(intervals)
	cpuChunk := cpuExposedStep / time.Duration(intervals)
	// stats is group-major: group g's step s entry at [g*Steps+s].
	stats := make([]groupStep, nGroups*o.Steps)
	runSharded(workers, nGroups, func(glo, ghi int) {
		// Reusable per-worker scratch — the now-buffer and the per-rank
		// chunk durations: the steady-state step loop below allocates
		// nothing. Unperturbed, every rank's chunks are the shared scalars;
		// perturbed, each group's entries are rescaled by its ranks'
		// persistent straggler factors.
		now := make([]time.Duration, gsize)
		gpuChunks := make([]time.Duration, gsize)
		cpuChunks := make([]time.Duration, gsize)
		for i := 0; i < gsize; i++ {
			gpuChunks[i] = perRankChunk
			cpuChunks[i] = cpuChunk
		}
		for g := glo; g < ghi; g++ {
			base := g * gsize
			rngs := rankRNGs[base : base+gsize]
			if perturbed && march {
				for i := range gpuChunks {
					f := perturbs[base+i].Factor()
					gpuChunks[i] = scaleDur(perRankChunk, f)
					cpuChunks[i] = scaleDur(cpuChunk, f)
				}
			}
			for step := 0; step < o.Steps; step++ {
				st := &stats[g*o.Steps+step]
				if !march {
					// Single chunk: data wait, one advance, done.
					w := dataWaits[g*o.Steps+step]
					if o.PerfectBalance {
						w = 0
					}
					gpuC, cpuC := gpuCompute, cpuExposedStep
					if perturbed {
						ps := perturbs[g] // gsize == 1: group g IS rank g
						stall, failed := ps.Step()
						w += stall
						st.stall = stall
						if failed {
							st.fails = 1
						}
						if f := ps.Factor(); f != 1 {
							gpuC, cpuC = scaleDur(gpuC, f), scaleDur(cpuC, f)
						}
					}
					v := w + advance(rngs[0], gpuC, cpuC)
					st.max, st.sum = v, v
					continue
				}
				// Per-rank start offset: data pipeline wait, plus any
				// injected transient stall. Fatal failures are only
				// recorded here — the whole job restarts, so their cost is
				// assembled globally in the sequential reduction.
				for i := range now {
					w := dataWaits[(base+i)*o.Steps+step]
					if o.PerfectBalance {
						w = 0
					}
					if perturbed {
						stall, failed := perturbs[base+i].Step()
						w += stall
						st.stall += stall
						if failed {
							st.fails++
						}
					}
					now[i] = w
				}
				// March through sync intervals: advance each rank by its
				// chunk, then sync within the group.
				var comm time.Duration
				for ev := 0; ev < syncEvents; ev++ {
					var mx time.Duration
					for i := range now {
						now[i] += advance(rngs[i], gpuChunks[i], cpuChunks[i])
						if now[i] > mx {
							mx = now[i]
						}
					}
					for i := range now {
						comm += (mx - now[i]) / time.Duration(ranks)
						now[i] = mx + evCost
					}
				}
				// Remaining compute after the last sync.
				var gmx, gsum time.Duration
				for i := range now {
					now[i] += advance(rngs[i], gpuChunks[i], cpuChunks[i])
					if now[i] > gmx {
						gmx = now[i]
					}
					gsum += now[i]
				}
				st.max, st.sum, st.comm = gmx, gsum, comm
			}
		}
	})

	// --- Sequential reduction: per step, assemble the global all-reduce
	// barrier, the failure/restart accounting and the breakdown from the
	// group contributions.
	stepTimes := make([]time.Duration, 0, o.Steps)
	stepComm := make([]time.Duration, 0, o.Steps)
	stepData := make([]time.Duration, 0, o.Steps)
	var total, useful, stallTotal time.Duration
	var restarts int
	restartCost := o.Perturb.RestartCostDur()
	var bk Breakdown
	var xferAcc time.Duration
	if march {
		xferAcc = time.Duration(syncEvents) * evCost
	}
	arCost := o.Topo.AllReduce(plan.DPWays, prog.GradBytes/float64(plan.Degree))
	// Gradient clipping: bucketed clip hides under the all-reduce.
	clipTime := time.Duration(prog.ClipKernels) * o.Arch.LaunchOverhead
	visible, _ := comm.OverlapGradClip(arCost, clipTime)
	clipExposed := visible - arCost
	for step := 0; step < o.Steps; step++ {
		var stepDataWait time.Duration
		if !o.PerfectBalance {
			for r := 0; r < ranks; r++ {
				stepDataWait += dataWaits[r*o.Steps+step]
			}
		}
		bk.DataWait += stepDataWait / time.Duration(ranks)
		stepData = append(stepData, stepDataWait/time.Duration(ranks))

		// Data-parallel gradient all-reduce: global barrier over the
		// group maxima.
		var commWaitAcc, mx, sum time.Duration
		var fails int
		for g := 0; g < nGroups; g++ {
			st := &stats[g*o.Steps+step]
			commWaitAcc += st.comm
			if st.max > mx {
				mx = st.max
			}
			sum += st.sum
			fails += st.fails
			stallTotal += st.stall
		}
		drWait := mx - sum/time.Duration(ranks)
		commWaitAcc += drWait
		stepEnd := mx + visible

		// A fatal rank failure loses the step: the job pays the failed
		// attempt, one checkpoint-restart, and the replayed step. Several
		// ranks failing in one step share a single restart.
		stepWall := stepEnd
		if fails > 0 {
			restarts++
			stepWall = 2*stepEnd + restartCost
		}
		total += stepWall
		useful += stepEnd
		stepTimes = append(stepTimes, stepWall)
		stepComm = append(stepComm, commWaitAcc)
		bk.CommWait += commWaitAcc
		bk.CommXfer += xferAcc + arCost
		bk.ClipExposed += clipExposed
		bk.CPUExposed += cpuExposedStep
	}

	n := time.Duration(o.Steps)
	bk.GPUCompute = gpuCompute
	bk.SerialPart = serialPart
	bk.CPUExposed /= n
	bk.DataWait /= n
	bk.CommXfer /= n
	bk.CommWait /= n
	bk.ClipExposed /= n
	for _, sl := range [][]time.Duration{stepTimes, stepComm, stepData} {
		sort.Slice(sl, func(i, j int) bool { return sl[i] < sl[j] })
	}
	bk.CommWaitMedian = stepComm[len(stepComm)/2]
	bk.DataWaitMedian = stepData[len(stepData)/2]
	goodput := 1.0
	if total > 0 {
		// Unperturbed, useful == total exactly, so this is exactly 1.
		goodput = float64(useful) / float64(total)
	}
	var stallShare float64
	if perturbed && total > 0 {
		stallShare = float64(stallTotal) / (float64(ranks) * float64(total))
	}
	return Result{
		MeanStep:     total / n,
		MedianStep:   stepTimes[len(stepTimes)/2],
		P99Step:      stepTimes[(len(stepTimes)*99+99)/100-1],
		Break:        bk,
		Plan:         plan,
		GraphCapture: graphCapture,
		Restarts:     restarts,
		StallShare:   stallShare,
		Goodput:      goodput,
	}
}

// scaleDur stretches a duration by a straggler slowdown factor, truncating
// to integer nanoseconds. Factor 1 is exact by construction.
func scaleDur(d time.Duration, f float64) time.Duration {
	if f == 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// gcCost is the per-step host stall from Python garbage collection: the
// interpreter still traverses its object graph proportionally to the amount
// of per-step Python work (approximated by the traced launch count), whether
// or not the kernels themselves were replayed from a CUDA graph.
func gcCost(c gpu.CPUModel, launches int) time.Duration {
	if !c.GCEnabled || c.GCInterval <= 0 {
		return 0
	}
	return time.Duration(launches/c.GCInterval) * c.GCPause
}
