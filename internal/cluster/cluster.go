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

// Skeleton is everything Simulate derives before its first random draw: the
// plan, the census pass, the collective schedule, graph capture, the GC
// model, the data-pipeline window, the chunk-jitter parameters, the march
// geometry and the gradient all-reduce with its clip overlap. It is a pure
// function of NewSkeleton's arguments. Simulate runs its random phases on
// it, and analytic.Estimate reads the same value, so the estimator's
// deterministic components are the simulator's, not a copy of them. The
// march has one shape for every plan: DAP groups crossing sync events, where
// a DAP-1 rank is a group of one that crosses none.
type Skeleton struct {
	Opts Options // normalized: unset tunables hold their defaults
	Plan dap.Plan

	// The census pass: roofline kernel time and its serial share, the host
	// exposure every rank pays per step (launch overhead not hidden behind
	// kernels, or graph replay, plus GC pauses) and the one-time CUDA-graph
	// capture cost.
	GPUCompute, SerialPart, CPUExposedStep, GraphCapture time.Duration

	// The census's DAP collectives cut each step's kernels into Intervals
	// compute chunks, one more than its sync events. A chunk's execution
	// jitter has relative spread ChunkCV, it hits a straggler delay with
	// probability StragglerProb, and PeaksPerStep background-CPU peaks land
	// per step.
	Intervals                            int
	ChunkCV, StragglerProb, PeaksPerStep float64

	// Each step, Groups DAP groups of GroupSize ranks march through
	// GroupSyncs sync events: the census's when the plan has DAP groups,
	// none when each rank is a group of one. A rank's GPU time is
	// GroupSyncs+1 chunks of PerRankChunk, and the events cost SyncXfer.
	Groups, GroupSize, GroupSyncs int
	PerRankChunk, SyncXfer        time.Duration
	// AllReduce is the data-parallel gradient all-reduce; Visible adds the
	// gradient clip it does not hide, ClipExposed.
	AllReduce, Visible, ClipExposed time.Duration

	// Epoch is one rank's prep-time stream length: a warmup window that
	// fills the prefetch queue, the measured steps and a trailing pad.
	Epoch int

	warmup       int
	stepEstimate time.Duration // the step time the data pipeline replays against
	evCost       time.Duration // one sync event plus its launch latency
	gen          *dataset.Generator
}

// NewSkeleton derives the skeleton of simulating prog on `ranks` GPUs at the
// given DAP degree. It fails when ranks and the degree do not form a plan.
func NewSkeleton(prog *workload.Program, ranks, dapDegree int, o Options) (Skeleton, error) {
	plan, err := dap.NewPlan(ranks, dapDegree)
	if err != nil {
		return Skeleton{}, err
	}
	o = o.normalized()
	s := Skeleton{Opts: o, Plan: plan}

	// Per-step invariants (identical across ranks), one pass over the
	// census: roofline kernel time, serial share, launch count, and the
	// exposed-CPU baseline (launches whose issue cost exceeds the kernel's
	// own duration leave the GPU idle; approximated per group).
	exposeCPU := !o.CUDAGraph && !o.ZeroLaunchOverhead
	var cpuExposedBase time.Duration
	var launches int
	for _, g := range prog.Groups {
		if o.ZeroSerial && g.Serial {
			continue
		}
		d, exposed := g.Cost(o.Arch, o.FlatEfficiency)
		s.GPUCompute += d
		if g.Serial {
			s.SerialPart += d
		}
		launches += g.Calls
		if exposeCPU {
			cpuExposedBase += exposed
		}
	}

	// Collective schedule.
	var syncEvents int
	var xferPerStep time.Duration
	for _, sp := range prog.Syncs {
		syncEvents += sp.Count
		bytes := sp.Bytes
		if o.ZeroCommVolume {
			bytes = 0
		}
		xferPerStep += time.Duration(sp.Count) * o.Topo.Cost(sp.Op, plan.Degree, bytes)
	}
	s.Intervals = syncEvents + 1

	// Per-rank CPU exposure is identical for every rank and every step —
	// it is a scalar, not a per-step buffer.
	if o.CUDAGraph {
		// One capture per recycling count, 1-4 (§3.2), during warmup: an
		// eager pass of launch work plus a replay. Steady-state steps replay
		// the captured graph. Replay is the only launch cost left, but
		// Python GC still stalls the host between replays until disabled.
		s.GraphCapture = 4 * (o.Arch.GraphReplayOverhead + time.Duration(launches)*o.Arch.LaunchOverhead)
		s.CPUExposedStep = o.Arch.GraphReplayOverhead + gcCost(o.CPU, launches)
	} else if !o.ZeroLaunchOverhead {
		s.CPUExposedStep = cpuExposedBase + gcCost(o.CPU, launches)
	}

	// Data pipeline window: simulate a warmup prefix so the waits reflect
	// steady state (the pipeline is warm after MLPerf's init phase), then
	// keep Steps waits. The leading window lets the prefetch queue fill; the
	// trailing pad keeps the epoch end out of the measurement (the
	// non-blocking loader defers slow batches, and at the very end of an
	// epoch it must finally wait for them — steady-state training doesn't
	// see that).
	s.warmup = max(16, o.Prefetch)
	s.Epoch = s.warmup + o.Steps + 16
	s.stepEstimate = s.GPUCompute + cpuExposedBase + xferPerStep
	s.gen = dataset.NewGenerator(o.Seed + 101)

	// Per-chunk relative jitter: a chunk of K kernels has duration CV of
	// roughly 1/sqrt(K) of the per-kernel CV. Fine-grained DAP sync points
	// mean few kernels per chunk, hence large relative jitter — the reason
	// imbalance dominates the Figure 3 gap at high DAP degrees. CUDA graphs
	// remove the launch-time component of that variance.
	s.PeaksPerStep = o.CPU.PeakProb * 2
	kernelsPerChunk := max(float64(launches)/float64(s.Intervals), 1)
	perKernelCV := 0.35
	s.StragglerProb = o.CPU.StragglerProb
	if o.CUDAGraph {
		perKernelCV = 0.12
		s.StragglerProb /= 15
	}
	s.ChunkCV = perKernelCV / math.Sqrt(kernelsPerChunk)

	// March geometry: the plan's DAP groups cross the census's sync events.
	// Without DAP groups every rank is a group of one, which has no peer to
	// wait for and marches its step as a single chunk.
	s.Groups, s.GroupSize = plan.DPWays, plan.Degree
	if plan.Degree > 1 && syncEvents > 0 {
		s.GroupSyncs = syncEvents
		// Cost of one sync event (mean over kinds) plus the NCCL kernel
		// launch latency, which CUDA graphs absorb into the graph.
		s.evCost = xferPerStep / time.Duration(syncEvents)
		if !o.CUDAGraph {
			s.evCost += 2 * o.Arch.LaunchOverhead
		}
		s.SyncXfer = time.Duration(syncEvents) * s.evCost
	}
	s.PerRankChunk = s.GPUCompute / time.Duration(s.GroupSyncs+1)

	// Data-parallel gradient all-reduce; bucketed gradient clipping hides
	// under it.
	s.AllReduce = o.Topo.AllReduce(plan.DPWays, prog.GradBytes/float64(plan.Degree))
	clipTime := time.Duration(prog.ClipKernels) * o.Arch.LaunchOverhead
	s.Visible, _ = comm.OverlapGradClip(s.AllReduce, clipTime)
	s.ClipExposed = s.Visible - s.AllReduce
	return s, nil
}

// RankPreps returns the batch-preparation times of ranks 0..n-1 for one
// epoch each, the streams the data-wait phase replays for those ranks,
// drawn on one pair of samplers. Prep times come from the geometry-only
// dataset path: the cost model reads nothing but the sample's index,
// sequence length and MSA size, so no protein is folded and no MSA
// allocated just to be timed.
func (s *Skeleton) RankPreps(n int) [][]time.Duration {
	gs, pt := s.gen.Sampler(), s.Opts.PrepModel.Timer()
	preps := make([][]time.Duration, n)
	for r := range preps {
		preps[r] = make([]time.Duration, s.Epoch)
		s.rankPrep(gs, pt, r, preps[r])
	}
	return preps
}

// rankPrep fills rank r's stream into a caller's buffer with caller-owned
// draw state, which the data-wait phase reuses across the ranks of a shard.
func (s *Skeleton) rankPrep(gs *dataset.GeomSampler, pt *dataset.PrepTimer, r int, prep []time.Duration) {
	for k := range prep {
		idx := r*s.Epoch + k
		seqLen, msaSize := gs.Geometry(idx)
		prep[k] = pt.DurationAt(idx, seqLen, msaSize, s.Opts.Seed+int64(r))
	}
}

// RankWaits replays one rank's prep times through its data pipeline against
// the skeleton's step estimate and returns the steady-state waits, one per
// simulated step.
func (s *Skeleton) RankWaits(prep []time.Duration) []time.Duration {
	o := &s.Opts
	tl := pipeline.AnalyticSim{PrepTimes: prep, Workers: o.Workers, Prefetch: o.Prefetch, NonBlocking: o.NonBlockingPipeline}.Run(s.stepEstimate)
	return tl.Wait[s.warmup : s.warmup+o.Steps]
}

// Simulate runs the step simulation for a program on `ranks` GPUs at the
// given DAP degree. It fails when ranks and the degree do not form a plan.
//
// It runs in four phases (see docs/ARCHITECTURE.md "Simulator hot path"):
// NewSkeleton derives everything deterministic; dataWaits precomputes every
// rank's data-pipeline waits from sample geometry only — no protein is
// folded, no MSA materialized; march runs each DAP group through every
// step; and reduce assembles the global barrier and the Result. The two
// middle phases shard across Options.SimWorkers goroutines. Per-rank RNG
// streams and per-group state are disjoint, and cross-group reductions sum
// integer nanoseconds, so the Result is bit-identical for every SimWorkers
// value. All step-loop scratch is hoisted and reused: the steady-state loop
// allocates nothing.
func Simulate(prog *workload.Program, ranks, dapDegree int, o Options) (Result, error) {
	s, err := NewSkeleton(prog, ranks, dapDegree, o)
	if err != nil {
		return Result{}, err
	}
	waits := s.dataWaits()
	return s.reduce(waits, s.march(waits)), nil
}

// dataWaits is the data-wait precompute: every rank's steady-state
// data-pipeline waits, rank-major (rank r's wait for step s at
// [r*Steps+s]). Every sample index draws its geometry and its prep time
// from streams keyed by the index alone, so ranks are independent and the
// precompute shards across the worker pool. The samplers switch streams in
// O(1) (package keyrand), and the geometry passes over its discarded
// residue draws with keyrand.SkipInt31n, at about one modular
// multiplication per register word the skip reads; that skip is still
// most of the phase.
func (s *Skeleton) dataWaits() []time.Duration {
	ranks, steps := s.Plan.TotalRanks, s.Opts.Steps
	waits := make([]time.Duration, ranks*steps)
	runSharded(s.Opts.SimWorkers, ranks, func(lo, hi int) {
		gs := s.gen.Sampler()
		pt := s.Opts.PrepModel.Timer()
		prep := make([]time.Duration, s.Epoch)
		for r := lo; r < hi; r++ {
			s.rankPrep(gs, pt, r, prep)
			copy(waits[r*steps:(r+1)*steps], s.RankWaits(prep))
		}
	})
	return waits
}

// advance returns the duration of one compute chunk on a rank: the GPU
// share plus the CPU-exposed share, the latter stretched when a background
// CPU peak lands in the chunk. CUDA graphs make the CPU share microscopic,
// which is exactly why they immunize the step against peaks (§3.2).
func (s *Skeleton) advance(rr *rand.Rand, gpuChunk, cpuChunk time.Duration) time.Duration {
	d := gpuChunk + cpuChunk
	if s.Opts.PerfectBalance {
		return d
	}
	// Gaussian execution jitter scaled to the chunk's kernel count.
	d += time.Duration(s.ChunkCV * rr.NormFloat64() * float64(gpuChunk))
	// Background CPU peak pinning this rank's launch thread right before
	// the sync point (§3.1 "slow workers"); exponential delay.
	if s.StragglerProb > 0 && rr.Float64() < s.StragglerProb {
		d += time.Duration(rr.ExpFloat64() * float64(s.Opts.CPU.StragglerMean))
	}
	if cpuChunk > 0 {
		p := s.PeaksPerStep / float64(s.Intervals)
		if p > 1 {
			p = 1
		}
		if rr.Float64() < p {
			d += time.Duration(s.Opts.CPU.PeakStretch * rr.Float64() * float64(cpuChunk))
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// march is the step march, sharded by DAP group, returning each group's
// per-step barrier contributions group-major (group g's step s at
// [g*Steps+s]). Within one step a DAP group interacts only internally (its
// sync barriers) until the global all-reduce; across steps a rank's only
// carried state is its private RNG stream. So each group's whole step
// sequence is independent of every other group's, and groups shard freely
// across workers; reduce assembles the global all-reduce afterwards.
func (s *Skeleton) march(waits []time.Duration) []groupStep {
	o, ranks := &s.Opts, s.Plan.TotalRanks

	// Perturbation streams: one private RNG stream per rank, disjoint from
	// the execution-jitter streams (seeded per group below), drawn in step
	// order. Disabled specs allocate nothing and draw nothing, so the
	// unperturbed simulation is bit-identical to a build without this layer.
	perturbed := o.Perturb.Enabled()
	var perturbs []*perturb.Stream
	if perturbed {
		perturbs = make([]*perturb.Stream, ranks)
		for r := range perturbs {
			perturbs[r] = o.Perturb.Stream(o.Seed, r)
		}
	}

	steps, gsize := o.Steps, s.GroupSize
	cpuChunk := s.CPUExposedStep / time.Duration(s.GroupSyncs+1)
	stats := make([]groupStep, s.Groups*steps)
	runSharded(o.SimWorkers, s.Groups, func(glo, ghi int) {
		// Reusable per-worker scratch — the group's jitter RNGs, the
		// now-buffer and the per-rank chunk durations: the steady-state
		// step loop below allocates nothing. A group marches through every
		// step before the next starts, so reseeding the RNGs at a group's
		// start gives each rank its own stream from the top, as one source
		// per rank would. Unperturbed, every rank's chunks are the shared
		// scalars; perturbed, each group's entries are rescaled by its
		// ranks' persistent straggler factors.
		rngs := make([]*rand.Rand, gsize)
		now := make([]time.Duration, gsize)
		gpuChunks := make([]time.Duration, gsize)
		cpuChunks := make([]time.Duration, gsize)
		for i := 0; i < gsize; i++ {
			rngs[i] = rand.New(rand.NewSource(0))
			gpuChunks[i] = s.PerRankChunk
			cpuChunks[i] = cpuChunk
		}
		for g := glo; g < ghi; g++ {
			base := g * gsize
			for i, rr := range rngs {
				rr.Seed(o.Seed*31 + int64(base+i))
			}
			if perturbed {
				for i := range gpuChunks {
					f := perturbs[base+i].Factor()
					gpuChunks[i] = scaleDur(s.PerRankChunk, f)
					cpuChunks[i] = scaleDur(cpuChunk, f)
				}
			}
			for step := 0; step < steps; step++ {
				st := &stats[g*steps+step]
				// Per-rank start offset: data pipeline wait, plus any
				// injected transient stall. Fatal failures are only
				// recorded here — the whole job restarts, so their cost is
				// assembled globally in the reduction.
				for i := range now {
					w := waits[(base+i)*steps+step]
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
				for ev := 0; ev < s.GroupSyncs; ev++ {
					var mx time.Duration
					for i := range now {
						now[i] += s.advance(rngs[i], gpuChunks[i], cpuChunks[i])
						if now[i] > mx {
							mx = now[i]
						}
					}
					for i := range now {
						comm += (mx - now[i]) / time.Duration(ranks)
						now[i] = mx + s.evCost
					}
				}
				// Remaining compute after the last sync: the whole step of
				// a group of one.
				var gmx, gsum time.Duration
				for i := range now {
					now[i] += s.advance(rngs[i], gpuChunks[i], cpuChunks[i])
					if now[i] > gmx {
						gmx = now[i]
					}
					gsum += now[i]
				}
				st.max, st.sum, st.comm = gmx, gsum, comm
			}
		}
	})
	return stats
}

// reduce is the sequential reduction: per step, it assembles the global
// all-reduce barrier, the failure/restart accounting and the breakdown from
// the group contributions.
func (s *Skeleton) reduce(waits []time.Duration, stats []groupStep) Result {
	o, steps := &s.Opts, s.Opts.Steps
	ranks := time.Duration(s.Plan.TotalRanks)
	stepTimes := make([]time.Duration, 0, steps)
	stepComm := make([]time.Duration, 0, steps)
	stepData := make([]time.Duration, 0, steps)
	var total, useful, stallTotal time.Duration
	var restarts int
	restartCost := o.Perturb.RestartCostDur()
	var bk Breakdown
	for step := 0; step < steps; step++ {
		var stepDataWait time.Duration
		if !o.PerfectBalance {
			for r := 0; r < s.Plan.TotalRanks; r++ {
				stepDataWait += waits[r*steps+step]
			}
		}
		bk.DataWait += stepDataWait / ranks
		stepData = append(stepData, stepDataWait/ranks)

		// Data-parallel gradient all-reduce: global barrier over the
		// group maxima.
		var commWaitAcc, mx, sum time.Duration
		var fails int
		for g := 0; g < s.Groups; g++ {
			st := &stats[g*steps+step]
			commWaitAcc += st.comm
			if st.max > mx {
				mx = st.max
			}
			sum += st.sum
			fails += st.fails
			stallTotal += st.stall
		}
		drWait := mx - sum/ranks
		commWaitAcc += drWait
		stepEnd := mx + s.Visible

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
	}

	n := time.Duration(steps)
	bk.GPUCompute = s.GPUCompute
	bk.SerialPart = s.SerialPart
	bk.CPUExposed = s.CPUExposedStep
	bk.DataWait /= n
	bk.CommXfer = s.SyncXfer + s.AllReduce
	bk.CommWait /= n
	bk.ClipExposed = s.ClipExposed
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
	if o.Perturb.Enabled() && total > 0 {
		stallShare = float64(stallTotal) / (float64(ranks) * float64(total))
	}
	return Result{
		MeanStep:     total / n,
		MedianStep:   stepTimes[len(stepTimes)/2],
		P99Step:      stepTimes[(len(stepTimes)*99+99)/100-1],
		Break:        bk,
		Plan:         s.Plan,
		GraphCapture: s.GraphCapture,
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
