package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/workload"
)

// directStats are the per-layer numbers the benchmark times itself by
// calling each layer directly, after the window, on the workload's own
// cells.
type directStats struct {
	censusS, simUsPerRankStep, allocsPerSim, shardedSpeedup float64
	estFresh, estRepeat, putMean, openS                     float64
	// fabric is a small dispatch round trip; the fabric workload takes its
	// dispatch numbers from the window instead.
	fabric fabricStats
	spans  []stageSpan
}

// Direct-call sample sizes.
const (
	simCells      = 4  // cells simulated, serially and sharded
	estimateCells = 32 // fresh-seed cells estimated, then estimated again
	fabricCells   = 4  // cells in the dispatch round trip
	simMaxRanks   = 256
	opens         = 3
)

// direct runs the direct calls after the window and the server are closed.
func (r *runner) direct() (directStats, error) {
	nSim, nEst, nFab := simCells, estimateCells, fabricCells
	if r.cfg.small {
		nSim, nEst, nFab = 1, 4, 1
	}
	sample := r.w.sample(r)
	var exact []scenario.Scenario
	for _, sc := range sample {
		if sc.Ranks <= simMaxRanks && len(exact) < nSim {
			sc.Mode = ""
			exact = append(exact, sc)
		}
	}
	var d directStats
	type stage struct {
		name string
		run  func() error
	}
	stages := []stage{
		{"census", func() error {
			d.censusS = timeCensus(exact)
			return nil
		}},
		{"simulate", func() (err error) {
			d.simUsPerRankStep, d.allocsPerSim, d.shardedSpeedup, err = timeSimulate(exact)
			return err
		}},
		{"estimate", func() error {
			keys, results, err := r.timeEstimate(&d, sample, nEst)
			if err == nil {
				d.putMean, err = timePut(filepath.Join(r.tmp, "put"), keys, results)
			}
			return err
		}},
		{"store-open", func() (err error) {
			d.openS, err = timeOpen(r.storeDir, r.w.fabric)
			return err
		}},
	}
	if !r.w.fabric {
		stages = append(stages, stage{"fabric-round-trip", func() (err error) {
			d.fabric, err = fabricTrip(exact[:min(nFab, len(exact))])
			return err
		}})
	}
	for _, s := range stages {
		start := time.Now()
		err := s.run()
		d.spans = append(d.spans, stageSpan{s.name, start, time.Now()})
		if err != nil {
			return d, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return d, nil
}

// timeCensus is the median time to lower each distinct census option set of
// the cells, three times each.
func timeCensus(cells []scenario.Scenario) float64 {
	seen := map[string]bool{}
	var ts []float64
	for _, sc := range cells {
		n, err := sc.Normalize()
		if err != nil || seen[scenario.CanonicalCensus(n.Census)] {
			continue
		}
		seen[scenario.CanonicalCensus(n.Census)] = true
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			workload.Census(model.FullConfig(), n.Census)
			ts = append(ts, time.Since(t0).Seconds())
		}
	}
	return quantile(ts, 0.5)
}

// timeSimulate runs cluster.Simulate on each cell with its census already
// lowered, serially and then sharded across GOMAXPROCS goroutines (results
// are identical at any width). It returns the serial wall time per rank per
// step in microseconds, heap allocations per serial call, and the serial over
// sharded wall-time ratio.
func timeSimulate(cells []scenario.Scenario) (usPerRankStep, allocs, speedup float64, err error) {
	var serial, sharded time.Duration
	var rankSteps int
	var mallocs uint64
	for _, sc := range cells {
		o, err := sc.Options()
		if err != nil {
			return 0, 0, 0, err
		}
		n, _ := sc.Normalize() // Options validated sc
		prog := workload.Census(model.FullConfig(), n.Census)
		o.SimWorkers = 1
		m0 := readMem()
		t0 := time.Now()
		cluster.Simulate(prog, sc.Ranks, sc.DAP, o)
		serial += time.Since(t0)
		mallocs += readMem().sub(m0).mallocs
		o.SimWorkers = runtime.GOMAXPROCS(0)
		t0 = time.Now()
		cluster.Simulate(prog, sc.Ranks, sc.DAP, o)
		sharded += time.Since(t0)
		rankSteps += sc.Ranks * o.Steps
	}
	us := float64(serial) / float64(time.Microsecond)
	return ratio(us, float64(rankSteps)), ratio(float64(mallocs), float64(len(cells))),
		ratio(float64(serial), float64(sharded)), nil
}

// timeEstimate estimates n unseen-seed variants of the sample cells, then the
// same n again (the prep-stream memo now warm), records both median
// latencies in d, and returns the estimates with their analytic keys.
func (r *runner) timeEstimate(d *directStats, sample []scenario.Scenario, n int) (keys []string, results []cluster.Result, err error) {
	cells := make([]scenario.Scenario, n)
	for k := range cells {
		cells[k] = sample[k%len(sample)]
		cells[k].Seed = freshSeed(r.cfg.seed, "direct/estimate", k)
		cells[k].Mode = scenario.ModeAnalytic
	}
	var ts [2][]float64
	for pass := range ts {
		for _, sc := range cells {
			t0 := time.Now()
			res, _, err := analytic.Estimate(sc)
			ts[pass] = append(ts[pass], time.Since(t0).Seconds())
			if err != nil {
				return nil, nil, err
			}
			if pass == 0 {
				keys = append(keys, sc.Fingerprint())
				results = append(results, res)
			}
		}
	}
	d.estFresh, d.estRepeat = quantile(ts[0], 0.5), quantile(ts[1], 0.5)
	return keys, results, nil
}

// timePut is the mean Put latency of the records into a fresh disk store.
func timePut(dir string, keys []string, results []cluster.Result) (float64, error) {
	st, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for k, key := range keys {
		t0 := time.Now()
		err = st.Put(key, results[k])
		total += time.Since(t0)
		if err != nil {
			st.Close()
			return 0, err
		}
	}
	return ratio(total.Seconds(), float64(len(keys))), st.Close()
}

// timeOpen is the median time to open (replay) the workload's store
// directory, as the kind of store the workload's server opened it.
func timeOpen(dir string, shared bool) (float64, error) {
	var ts []float64
	for k := 0; k < opens; k++ {
		t0 := time.Now()
		var st interface{ Close() error }
		var err error
		if shared {
			st, err = store.OpenShared[cluster.Result](dir, "reopen")
		} else {
			st, err = store.OpenDisk[cluster.Result](dir)
		}
		ts = append(ts, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	return quantile(ts, 0.5), nil
}

// fabricTrip dispatches the cells through an in-process coordinator to one
// worker at the production poll interval and reads the dispatch numbers off
// the coordinator's metrics.
func fabricTrip(cells []scenario.Scenario) (fabricStats, error) {
	reg := obs.NewRegistry()
	coord := fabric.NewCoordinator(fabric.Config{Registry: reg}, nil)
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fabricStats{}, err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	ctx, cancel := context.WithCancel(context.Background())
	w := &fabric.Worker{Base: "http://" + ln.Addr().String(), Name: "direct", HTTP: &http.Client{}}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-stopped
	}()
	before, err := scrapeRegistry(reg)
	if err != nil {
		return fabricStats{}, err
	}
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for k, sc := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = coord.Execute(ctx, scalefold.StepConfig{Scenario: sc})
		}()
	}
	wg.Wait()
	after, err := scrapeRegistry(reg)
	if err = errors.Join(append(errs, err)...); err != nil {
		return fabricStats{}, err
	}
	return fabricOf(before, after), nil
}
