package scalefold

import (
	"time"

	"repro/internal/curve"
	"repro/internal/mlperf"
)

// Fig9Bar is one stacked bar of Figure 9.
type Fig9Bar struct {
	Label  string
	Break  mlperf.Breakdown
	Shares map[string]float64
	// PaperShares are the fractions read off the paper's Figure 9.
	PaperShares map[string]float64
}

// refMLPerfStep returns the reference step time at the MLPerf scale
// (256 H100, global batch 256 — one sample per rank, no DAP).
func refMLPerfStep(r *Resolver) time.Duration {
	return r.must(ReferenceConfig("H100", 256)).MeanStep
}

// scaleFoldMLPerfStep returns the fully-optimized step time at 2048 H100
// with DAP-8 (the ladder's final configuration).
func scaleFoldMLPerfStep(r *Resolver) time.Duration {
	c := Figure7Config("H100", 2048, 8)
	c.Census.TorchCompile = true
	c.DisableGC = true
	return r.must(c).MeanStep
}

// Figure9 reproduces the time-to-train breakdown bars.
func Figure9(r *Resolver) []Fig9Bar {
	ref := mlperf.TimeToTrain(mlperf.ReferenceRun(refMLPerfStep(r)))
	sf := scaleFoldMLPerfStep(r)
	noAsync := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, false))
	async := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, true))
	return []Fig9Bar{
		{
			Label: "Ref", Break: ref, Shares: ref.Shares(),
			PaperShares: map[string]float64{"train": 0.78, "eval": 0.22},
		},
		{
			Label: "ScaleFold (w/o async eval)", Break: noAsync, Shares: noAsync.Shares(),
			PaperShares: map[string]float64{"train": 0.53, "eval": 0.43, "init": 0.01, "compilation": 0.03},
		},
		{
			Label: "ScaleFold (with async eval)", Break: async, Shares: async.Shares(),
			PaperShares: map[string]float64{"train": 0.74, "train_eval_comm": 0.14, "init": 0.09, "compilation": 0.03},
		},
	}
}

// Figure10 reproduces the time-to-train bars (minutes).
func Figure10(r *Resolver) []mlperf.Fig10Row {
	ref := mlperf.TimeToTrain(mlperf.ReferenceRun(refMLPerfStep(r)))
	sf := scaleFoldMLPerfStep(r)
	noAsync := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, false))
	async := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, true))
	return []mlperf.Fig10Row{
		{Label: "Reference (H100x256)", Paper: 48 * time.Minute, Minutes: ref.Total().Minutes(), Break: ref},
		{Label: "ScaleFold (H100x2048, DAP8, NoAsyncEval)", Paper: 11 * time.Minute, Minutes: noAsync.Total().Minutes(), Break: noAsync},
		{Label: "ScaleFold (H100x2080, DAP8)", Paper: 8 * time.Minute, Minutes: async.Total().Minutes(), Break: async},
	}
}

// Figure11 reproduces the pretraining schedule: the avg_lddt_ca curve and
// the end-to-end wall time. Phase 1 runs global batch 128 on 1024 training
// GPUs; phase 2 runs global batch 256 on 2048 training GPUs with the Triton
// MHA kernel disabled (§4.2).
func Figure11(r *Resolver) (curve.Schedule, curve.Result) {
	p1 := Figure7Config("H100", 1024, 8)
	p1.Census.TorchCompile = true
	p1.DisableGC = true
	step128 := r.must(p1).MedianStep

	p2 := Figure7Config("H100", 2048, 8)
	p2.Census.TorchCompile = true
	p2.DisableGC = true
	p2.Census.FusedMHA = false // "disable Triton mha kernel" for GBS 256
	step256 := r.must(p2).MedianStep

	sched := curve.PaperSchedule(step128, step256)
	return sched, sched.Pretrain()
}
