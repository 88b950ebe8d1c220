// Package analytic is the closed-form twin of the exact step simulator: it
// composes what the codebase already derives piecewise — the deterministic
// kernel/comm/pipeline breakdown, max-of-n order statistics over the
// per-rank jitter exposure, and the 1-(1-p)^ranks restart model — into a
// cluster.Result estimate in microseconds instead of milliseconds, with an
// explicit error Bound attached to every stochastic field.
//
// The deterministic skeleton (roofline kernel times, collective schedule,
// graph capture, GC pauses, the gradient-clip overlap, the chunk-jitter
// parameters) is read from cluster.NewSkeleton, the same value the simulator
// marches on, so those components are not estimates at all. The stochastic
// components — execution jitter at sync barriers, CPU-peak and straggler
// delays, data-pipeline waits, and the perturbation layer's
// slowdowns/stalls/failures — are modeled by expectation and order
// statistics: a barrier-synced step ends when its slowest rank does, so
// each noise source contributes roughly E[max over ranks], not the mean.
//
// The contract is containment, not precision: the exact simulator's value
// for the same scenario lands inside each stated Bound (pinned by the
// fidelity property test in package scalefold), and the bound's width is
// the estimator's honest statement of how much the answer could move. Auto
// mode uses exactly that statement: a cell escalates to exact simulation
// only when its bound straddles a decision boundary (ShouldEscalate).
package analytic

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sampleRanks is how many pseudo-ranks the data-wait estimate replays
// through the pipeline model. The replay is the estimator's only
// non-closed-form component and its cost ceiling; four ranks of one warm
// epoch each keep it in the tens of microseconds while sampling the
// per-rank prep-time streams the simulator would use verbatim — for
// scenarios with ranks <= sampleRanks the waits are exact.
const sampleRanks = 4

// sampledPrepTimes returns the prep-time streams of pseudo-ranks 0..n-1 for
// one warm epoch each — the simulator's own streams for those ranks —
// through memo when there is one. The streams are a pure function of their
// key — seed, rank count, epoch length and prep model — so every cell of a
// run that shares those shares the entry; callers treat the cached slices
// as read-only.
func sampledPrepTimes(sk *cluster.Skeleton, n int, memo *sweep.Cache[[][]time.Duration]) [][]time.Duration {
	if memo == nil {
		return sk.RankPreps(n)
	}
	o := &sk.Opts
	key := fmt.Sprintf("%d|%d|%d|%v", o.Seed, n, sk.Epoch, o.PrepModel)
	preps, _ := memo.Do(key, func() [][]time.Duration { return sk.RankPreps(n) })
	return preps
}

// Estimate produces a closed-form cluster.Result for the scenario plus the
// error Bounds attached to every stochastic field. The scenario's Mode is
// ignored here — an estimate describes the same physical scenario whatever
// key generation it is stored under; mode handling (store keys, escalation)
// belongs to the sweep layer. Invalid scenarios return the same typed error
// Validate would. It keeps no memo: EstimateWith(s, nil).
func Estimate(s scenario.Scenario) (cluster.Result, Bounds, error) {
	return EstimateWith(s, nil)
}

// EstimateWith is Estimate with the sampled pseudo-ranks' prep streams
// memoized in memo, when it is not nil. Those streams are most of an
// estimate's cost, and the cells of one run often share them: every probe
// of a search shares its seed. The caller owns the memo and bounds its
// lifetime — a scalefold.Resolver keeps one for its run — so the package
// holds no state that outlives a run.
func EstimateWith(s scenario.Scenario, memo *sweep.Cache[[][]time.Duration]) (cluster.Result, Bounds, error) {
	o, err := s.Options()
	if err != nil {
		return cluster.Result{}, Bounds{}, err
	}
	n, err := s.Normalize()
	if err != nil {
		return cluster.Result{}, Bounds{}, err
	}
	ranks := n.Ranks
	sk, err := cluster.NewSkeleton(workload.Full(n.Census), ranks, n.DAP, o)
	if err != nil {
		return cluster.Result{}, Bounds{}, err
	}

	// --- Data-pipeline waits: replay the simulator's own per-rank pipeline
	// for a handful of sampled ranks (exact streams, exact warmup) instead
	// of all of them. The sampled mean estimates the breakdown's DataWait;
	// the sampled per-step maxima estimate the barrier's wait term.
	rSample := min(sampleRanks, ranks)
	stepMaxWait := make([]time.Duration, o.Steps)
	stepMeanWait := make([]float64, o.Steps)
	var waitSum time.Duration
	for _, prep := range sampledPrepTimes(&sk, rSample, memo) {
		for st, w := range sk.RankWaits(prep) {
			waitSum += w
			stepMeanWait[st] += sec(w) / float64(rSample)
			if w > stepMaxWait[st] {
				stepMaxWait[st] = w
			}
		}
	}
	meanWait := sec(waitSum) / float64(rSample*o.Steps)
	var waitBarrier float64
	for _, w := range stepMaxWait {
		waitBarrier += sec(w)
	}
	waitBarrier /= float64(o.Steps)
	waitExact := ranks <= rSample // every rank was replayed: waits are exact
	if o.PerfectBalance {
		meanWait, waitBarrier, waitExact = 0, 0, true
	}

	// --- Stochastic extras at the step barrier: a step ends when its
	// slowest rank does, so each noise source contributes an expected
	// max-over-ranks, built from the skeleton's per-chunk parameters the
	// simulator's jitter draws from.
	cpuChunk := sec(sk.CPUExposedStep) / float64(sk.Intervals)

	var jIntra, jCross, jStrag, jPeak, sigmaStep float64
	if !o.PerfectBalance {
		var sigmaChunk float64
		if sk.March {
			sigmaChunk = sk.ChunkCV * sec(sk.PerRankChunk)
			// Within a group every sync barrier waits for the slowest of
			// gsize ranks; across groups the final all-reduce waits for the
			// slowest group-sum (sd ~ sigma*sqrt(intervals): the intervals'
			// maxima are near-independent).
			jIntra = float64(sk.Intervals) * sigmaChunk * maxGauss(sk.GroupSize)
			jCross = sigmaChunk * math.Sqrt(float64(sk.Intervals)) * maxGauss(sk.Groups)
		} else {
			sigmaChunk = sk.ChunkCV * sec(sk.GPUCompute)
			jCross = sigmaChunk * maxGauss(ranks)
		}
		sigmaStep = sigmaChunk * math.Sqrt(float64(sk.Intervals))
		// Stragglers: rare exponential delays, stragglerProb per advance;
		// the barrier sees roughly the largest of the k expected arrivals
		// (E[max of k Exp(m)] = m*H_k ~ m*ln(1+k), smooth through k < 1).
		if sk.StragglerProb > 0 {
			k := float64(ranks) * float64(sk.Intervals) * sk.StragglerProb
			jStrag = sec(o.CPU.StragglerMean) * math.Log1p(k)
		}
		// CPU peaks stretch the exposed-CPU share of a chunk by up to
		// PeakStretch; the barrier sees ~the largest of the k expected
		// uniform stretches (E[max of k U(0,1)] = k/(k+1)).
		if cpuChunk > 0 && sk.PeaksPerStep > 0 {
			k := float64(ranks) * sk.PeaksPerStep
			jPeak = o.CPU.PeakStretch * cpuChunk * k / (k + 1)
		}
	}

	// --- Perturbation closed forms (all zero on a healthy cluster).
	p := o.Perturb.Normalize()
	compute := sec(sk.GPUCompute) + sec(sk.CPUExposedStep)
	var slowPt, slowHi, stallPt, stallHi float64
	if p.SlowdownProb > 0 && p.SlowdownFactor > 1 {
		// Persistent stragglers: each rank is slowed w.p. SlowdownProb by a
		// factor drawn once from U[1, F]; the barrier tracks the slowest.
		// With k expected slowed ranks the max of their uniform draws sits
		// at ~k/(k+1) of the way to F.
		k := float64(ranks) * p.SlowdownProb
		slowPt = (p.SlowdownFactor - 1) * compute * k / (k + 1)
		slowHi = (p.SlowdownFactor - 1) * compute
	}
	if p.StallRate > 0 && p.StallMean > 0 {
		// Transient stalls: Poisson(StallRate) arrivals per rank-step, each
		// Exp(StallMean); the barrier sees ~the largest across ranks.
		k := float64(ranks) * p.StallRate
		stallPt = p.StallMean * math.Log1p(k)
		stallHi = p.StallMean * (2*math.Log1p(k) + 3)
	}

	// --- Healthy step wall: deterministic base + barrier extras.
	base := waitBarrier + sec(sk.GPUCompute) + sec(sk.CPUExposedStep) + sec(sk.SyncXfer) + sec(sk.Visible)
	jPoint := jIntra + jCross + jStrag + jPeak
	stepEnd := base + jPoint + slowPt + stallPt
	// The bound allowances: jitter estimates doubled plus a 3-sigma step
	// spread, a floor of 2% of the base for the approximations' slack, and
	// headroom for data waits the unsampled ranks might add.
	slack := 0.02*base + 3*sigmaStep
	waitSpill := 0.0
	if !waitExact {
		waitSpill = 2*waitBarrier + 0.02*base
	}
	stepEndLo := base - slack
	stepEndHi := base + 2*(jIntra+jCross) + 3*jStrag + 2*jPeak + slowHi + stallHi + slack + waitSpill
	if stepEndLo < 0 {
		stepEndLo = 0
	}

	// --- Failures: each step fails iff any rank draws one, q = 1-(1-p)^n;
	// restarts over the run are Binomial(steps, q), bounded by its 0.5% and
	// 99.5% quantiles. A failed step pays the attempt, a restart, and the
	// replay: wall = 2*stepEnd + restartCost.
	steps := o.Steps
	q := 0.0
	if p.FailProb > 0 {
		q = 1 - math.Pow(1-p.FailProb, float64(ranks))
	}
	rc := sec(p.RestartCostDur())
	restartsPt := int(math.Round(float64(steps) * q))
	restartsLo := binomQuantile(steps, q, 0.005)
	restartsHi := binomQuantile(steps, q, 0.995)

	meanOf := func(stepSec float64, restarts float64) float64 {
		return stepSec + restarts/float64(steps)*(stepSec+rc)
	}
	meanPt := meanOf(stepEnd, float64(steps)*q)
	meanLo := meanOf(stepEndLo, float64(restartsLo))
	meanHi := meanOf(stepEndHi, float64(restartsHi))

	goodputOf := func(stepSec float64, restarts float64) float64 {
		total := float64(steps)*stepSec + restarts*(stepSec+rc)
		if total <= 0 {
			return 1
		}
		return float64(steps) * stepSec / total
	}
	goodputPt := goodputOf(stepEnd, float64(steps)*q)
	if q == 0 {
		goodputPt = 1 // healthy runs are exactly 1, not 1-epsilon
	}
	goodputLo := goodputOf(stepEndLo, float64(restartsHi))
	goodputHi := goodputOf(stepEndHi, float64(restartsLo))

	// Median over steps: the sorted middle step is a failed one only once
	// failures claim the top half of the order.
	failNeeded := steps - steps/2
	failWall := func(stepSec float64) float64 { return 2*stepSec + rc }
	medianPt := stepEnd
	if restartsPt >= failNeeded {
		medianPt = failWall(stepEnd)
	}
	medianLo := stepEndLo
	if restartsLo >= failNeeded {
		medianLo = failWall(stepEndLo)
	}
	medianHi := stepEndHi
	if restartsHi >= failNeeded {
		medianHi = failWall(stepEndHi)
	}

	// P99 over <100 steps is the max step: a failed wall as soon as one
	// restart is plausible, and in any case the largest healthy draw — the
	// per-step noise allowances scaled up by the steps-wide max.
	tailScale := math.Log1p(float64(steps))
	p99HealthyHi := base + 2*(jIntra+jCross) + (2+tailScale)*(jStrag+stallHi) + 2*jPeak + slowHi + slack + waitSpill + sigmaStep*maxGauss(steps)
	p99Pt := stepEnd
	if float64(steps)*q >= 0.5 {
		p99Pt = failWall(stepEnd)
	}
	p99Lo := stepEndLo
	if restartsLo >= 1 {
		p99Lo = failWall(stepEndLo)
	}
	p99Hi := p99HealthyHi
	if restartsHi >= 1 {
		p99Hi = failWall(p99HealthyHi)
	}

	// Stall share: injected stall time over ranks*wall — expectation per
	// rank-step is StallRate*StallMean, diluted by restarts' extra wall.
	var stallSharePt, stallShareLo, stallShareHi float64
	if p.StallRate > 0 && p.StallMean > 0 {
		perRank := p.StallRate * p.StallMean
		stallSharePt = perRank / meanPt
		stallShareLo = perRank / (3 * meanHi)
		stallShareHi = 3 * perRank / meanLo
	}

	// Comm wait: the per-event barrier gaps plus the all-reduce straggler
	// wait — same order statistics as the step extras, minus the part every
	// rank shares.
	commWaitPt := float64(sk.SyncEvents)*sk.ChunkCV*sec(sk.PerRankChunk)*maxGauss(sk.GroupSize) +
		jCross + jStrag + jPeak + stallPt + slowPt + (waitBarrier - meanWait)
	if o.PerfectBalance {
		commWaitPt = 0
	}
	commWaitLo := commWaitPt / 4
	commWaitHi := 3*commWaitPt + 0.02*base + stallHi
	dataWaitHi := 2*meanWait + 0.01*base
	if waitExact {
		dataWaitHi = meanWait
	}

	// --- Assemble the Result and its bounds.
	bk := cluster.Breakdown{
		GPUCompute:  sk.GPUCompute,
		SerialPart:  sk.SerialPart,
		CPUExposed:  sk.CPUExposedStep,
		DataWait:    dur(meanWait),
		CommXfer:    sk.SyncXfer + sk.AllReduce,
		CommWait:    dur(commWaitPt),
		ClipExposed: sk.ClipExposed,
	}
	// Median-over-steps variants from the sampled replay (data) and the
	// point estimate (comm) — informational, like the simulator's.
	medianOf := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		for i := 1; i < len(s); i++ { // insertion sort: steps is small
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[len(s)/2]
	}
	bk.DataWaitMedian = dur(medianOf(stepMeanWait))
	bk.CommWaitMedian = dur(commWaitPt)

	res := cluster.Result{
		MeanStep:     dur(meanPt),
		MedianStep:   dur(medianPt),
		P99Step:      dur(p99Pt),
		Break:        bk,
		Plan:         sk.Plan,
		GraphCapture: sk.GraphCapture,
		Restarts:     restartsPt,
		StallShare:   stallSharePt,
		Goodput:      goodputPt,
	}
	bounds := Bounds{
		MeanStep:   bound(meanLo, meanHi),
		MedianStep: bound(medianLo, medianHi),
		P99Step:    bound(p99Lo, p99Hi),
		DataWait:   bound(0, dataWaitHi),
		CommWait:   bound(commWaitLo, commWaitHi),
		Goodput:    bound(goodputLo, goodputHi),
		Restarts:   bound(float64(restartsLo), float64(restartsHi)),
		StallShare: bound(stallShareLo, stallShareHi),
	}
	if q == 0 {
		bounds.Goodput = Bound{Lo: 1, Hi: 1}
		bounds.Restarts = Bound{}
	}
	if p.StallRate == 0 || p.StallMean == 0 {
		bounds.StallShare = Bound{}
	}
	return res, bounds, nil
}

// Policy is the auto-mode escalation rule: a cell leaves the analytic fast
// path only when its bounds are too wide to act on — the goodput interval
// straddles more than GoodputWidth (the resilience cliff region, where the
// restart count is genuinely bimodal), or the mean-step relative error
// radius exceeds MeanStepRel.
type Policy struct {
	GoodputWidth float64
	MeanStepRel  float64
}

// DefaultPolicy is the escalation rule the sweep layer applies in auto
// mode. The thresholds are deliberately permissive: healthy cells and
// deep-past-the-cliff cells stay analytic, the transition region — where a
// ±1 restart moves goodput by tens of points — escalates.
var DefaultPolicy = Policy{GoodputWidth: 0.2, MeanStepRel: 0.35}

// ShouldEscalate reports whether a cell with these bounds needs the exact
// simulator under the policy.
func (p Policy) ShouldEscalate(b Bounds) bool {
	return b.Goodput.Width() > p.GoodputWidth || b.MeanStep.RelHalfWidth() > p.MeanStepRel
}

// ShouldEscalate applies DefaultPolicy.
func ShouldEscalate(b Bounds) bool { return DefaultPolicy.ShouldEscalate(b) }
