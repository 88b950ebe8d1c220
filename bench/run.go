package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
)

// setups is how many times a run sets the server up (once in a small run).
// setup_s is their median; the last set-up server serves the measured
// window.
const setups = 3

// config is one invocation of the benchmark.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	traceFile string
	dir       string
	// small shrinks fixtures and direct-call samples so the smoke test runs
	// every workload in a few seconds.
	small bool
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: what was measured, and where.
type report struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Traced   bool      `json:"traced"`
	Host     host      `json:"host"`
	Clients  int       `json:"clients"`
	Jobs     int       `json:"jobs"`
	Cells    int       `json:"cells"`
	WindowS  float64   `json:"window_s"`
	SetupS   []float64 `json:"setup_samples_s"`
	// EndToEnd holds the end-to-end metrics in traced runs too, so the
	// tracing overhead is the gap to a plain run on the same seed.
	EndToEnd  map[string]metric `json:"end_to_end"`
	Failures  []string          `json:"failures,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// jobInput is what one job sends: explicit scenarios for a sweep job, or a
// search spec.
type jobInput struct {
	sweep  *service.JobSpec
	search *service.SearchJobSpec
}

// jobRecord is everything the load loop observed about one job.
type jobRecord struct {
	index  int
	client int
	id     string
	// Client clock: POST sent, first row or probe parsed, DoneEvent parsed.
	sent, first, done time.Time
	reqBytes          int
	doneEv            service.DoneEvent
	err               error
	search            bool
	// hashes[i] is the hash of streamed row i's data (sweep jobs).
	hashes []uint64
	// rows and frontier are kept only for the jobs the output checks sample.
	rows     []service.RowEvent
	frontier *scalefold.Frontier
	probes   int
	// Traced runs only: the server's created, started and finished instants,
	// the cell spans' total time and count, the run time no cell span covers,
	// and, for the first traceCellJobs jobs, the cell spans themselves.
	created, started, finished time.Time
	cellTime, runSelf          time.Duration
	cells                      int
	spans                      []cellSpan
}

// runner holds one run's state.
type runner struct {
	cfg      config
	w        *workloadDef
	tmp      string
	storeDir string
	// warm-replay fixture: the prepared scenarios and the hash of the row
	// each streamed during prepare.
	pool     []scenario.Scenario
	expected []uint64
}

// server is one set-up service: the HTTP server, and in fabric workloads the
// two in-process workers.
type server struct {
	srv     *service.Server
	hs      *http.Server
	served  chan error
	url     string
	stop    context.CancelFunc
	workers sync.WaitGroup
	stores  []*store.Shared[cluster.Result]
}

func run(cfg config) (report, result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return report{}, result{}, fmt.Errorf("unknown workload %q (want one of %s)",
			cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return report{}, result{}, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return report{}, result{}, err
	}
	defer os.RemoveAll(tmp)
	r := &runner{cfg: cfg, w: w, tmp: tmp, storeDir: filepath.Join(tmp, "store")}
	rep := report{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Host: hostStamp(), Clients: w.clients}

	if w.prepare != nil {
		if err := w.prepare(r); err != nil {
			return report{}, result{}, fmt.Errorf("prepare: %w", err)
		}
	}
	n := setups
	if cfg.small {
		n = 1
	}
	var srv *server
	for k := 0; k < n; k++ {
		t0 := time.Now()
		s, err := r.setup(k)
		if err != nil {
			return report{}, result{}, fmt.Errorf("setup: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		if k == n-1 {
			srv = s
		} else if err := s.close(); err != nil {
			return report{}, result{}, fmt.Errorf("setup: closing: %w", err)
		}
	}

	var before scrape
	var ms0 memStats
	if cfg.trace {
		if before, err = scrapeURL(srv.url); err != nil {
			srv.close()
			return report{}, result{}, err
		}
		ms0 = readMem()
	}
	start := time.Now()
	recs := r.window(srv.url, start.Add(cfg.seconds))
	end := time.Now()
	var after scrape
	var ms1 memStats
	if cfg.trace {
		ms1 = readMem()
		after, err = scrapeURL(srv.url)
	}
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return report{}, result{}, err
	}

	var res result
	var good []jobRecord
	for _, rec := range recs {
		res.Attempted++
		if rec.err != nil {
			res.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("job %d: %v", rec.index, rec.err))
			continue
		}
		good = append(good, rec)
		rep.Cells += rec.doneEv.Rows
	}
	rep.Jobs = len(good)
	rep.WindowS = end.Sub(start).Seconds()
	if fails := w.check(r, good); len(fails) > 0 {
		res.Failed += len(fails)
		rep.Failures = append(rep.Failures, fails...)
	}
	if n := len(rep.Failures); n > maxReported {
		rep.Failures = append(rep.Failures[:maxReported], fmt.Sprintf("and %d more", n-maxReported))
	}
	res.Correct = res.Failed == 0 && len(good) > 0
	rep.EndToEnd = endToEnd(good, rep.SetupS, rep.WindowS)
	res.Metrics = rep.EndToEnd
	if cfg.trace {
		d, err := r.direct()
		if err != nil {
			return report{}, result{}, fmt.Errorf("direct calls: %w", err)
		}
		fab := fabricOf(before, after)
		if !w.fabric {
			fab = d.fabric
		}
		res.Metrics = perLayer(good, before.delta(after), after, fab, ms1.sub(ms0), d)
		if err := writeTrace(cfg.traceFile, start, good, d.spans); err != nil {
			return report{}, result{}, err
		}
		rep.TraceFile = cfg.traceFile
	}
	return rep, res, nil
}

// setup starts the service on the workload's store directory (replaying it),
// waits for the first 200 from /v1/healthz — with the whole fleet
// registered, in fabric workloads — and runs the workload's warmup job, which
// fills the census and prep caches.
func (r *runner) setup(k int) (*server, error) {
	s, err := startServer(r.storeDir, r.w.fabric)
	if err != nil {
		return nil, err
	}
	fleet := 0
	if r.w.fabric {
		fleet = fleetSize
	}
	if err = s.waitHealthy(fleet); err == nil {
		err = r.send(newClient(s.url), r.w.warmup(r, k), &jobRecord{index: -1})
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// maxReported bounds the failure messages a report lists; failed counts
// them all.
const maxReported = 20

// fleetSize is the number of fabric workers the fabric workload runs.
const fleetSize = 2

// startServer runs a service with production defaults on dir: Workers =
// GOMAXPROCS, two active jobs, the default store cache. In fabric mode the
// server is a coordinator and fleetSize workers, each its own store.Shared
// owner of dir, claim from it at the production poll and heartbeat
// intervals.
func startServer(dir string, fab bool) (*server, error) {
	cfg := service.Config{StoreDir: dir}
	if fab {
		cfg.Fabric = &fabric.Config{}
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if fab {
		ctx, cancel := context.WithCancel(context.Background())
		s.stop = cancel
		for k := 0; k < fleetSize; k++ {
			owner := fmt.Sprintf("w%d", k)
			st, err := store.OpenShared[cluster.Result](dir, owner)
			if err != nil {
				s.close()
				return nil, err
			}
			s.stores = append(s.stores, st)
			w := &fabric.Worker{Base: s.url, Name: owner, Store: st, HTTP: &http.Client{}}
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				w.Run(ctx)
			}()
		}
	}
	return s, nil
}

// close stops the workers, then the service (which closes its store), then
// the HTTP server, and waits for each.
func (s *server) close() error {
	if s.stop != nil {
		s.stop()
		s.workers.Wait()
	}
	err := s.srv.Close()
	s.hs.Close()
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	for _, st := range s.stores {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// waitHealthy polls /v1/healthz until it answers 200 with at least fleet
// registered workers.
func (s *server) waitHealthy(fleet int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h service.HealthStatus
		err := getJSON(s.url+"/v1/healthz", &h)
		if err == nil && h.FleetWorkers >= fleet {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 10s (fleet %d/%d): %v", h.FleetWorkers, fleet, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// newClient returns a load client with its own transport, holding at most
// one connection to the server.
func newClient(base string) *service.Client {
	return &service.Client{Base: base, HTTP: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

// window is the measured closed loop: w.clients goroutines, each with its
// own client, take the next job index and run that job until the deadline
// passes and every job the output checks sample has run. Jobs started
// before the deadline finish inside the window.
func (r *runner) window(base string, deadline time.Time) []jobRecord {
	var next atomic.Int64
	per := make([][]jobRecord, r.w.clients)
	var wg sync.WaitGroup
	for k := range per {
		c := newClient(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= r.w.keep && !time.Now().Before(deadline) {
					break
				}
				rec := jobRecord{index: i, client: k}
				rec.err = r.send(c, r.w.input(r, i), &rec)
				if rec.err == nil && r.cfg.trace {
					rec.err = r.observe(c, &rec)
				}
				per[k] = append(per[k], rec)
			}
			c.HTTP.CloseIdleConnections()
		}()
	}
	wg.Wait()
	var all []jobRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].index < all[b].index })
	return all
}

// send runs one job from POST to DoneEvent and fills rec. Rows of the jobs
// the output checks sample (0 <= rec.index < w.keep) are kept whole; every
// other row is kept as a hash.
func (r *runner) send(c *service.Client, in jobInput, rec *jobRecord) error {
	keep := rec.index >= 0 && rec.index < r.w.keep
	if r.cfg.trace {
		body, err := json.Marshal(in.body())
		if err != nil {
			return err
		}
		rec.reqBytes = len(body)
	}
	rec.sent = time.Now()
	var st service.JobStatus
	var err error
	if in.sweep != nil {
		st, err = c.Submit(*in.sweep)
	} else {
		st, err = c.SubmitSearch(*in.search)
	}
	if err != nil {
		return err
	}
	rec.id = st.ID
	if in.sweep != nil {
		rec.hashes = make([]uint64, len(in.sweep.Scenarios))
		rec.doneEv, err = c.Stream(st.ID, func(ev service.RowEvent) error {
			if rec.first.IsZero() {
				rec.first = time.Now()
			}
			if ev.Index < 0 || ev.Index >= len(rec.hashes) {
				return fmt.Errorf("row index %d out of range", ev.Index)
			}
			rec.hashes[ev.Index] = rowHash(ev.Data)
			if keep {
				rec.rows = append(rec.rows, ev)
			}
			return nil
		})
	} else {
		rec.search = true
		var f *scalefold.Frontier
		f, rec.doneEv, err = c.SearchStream(st.ID, func(service.ProbeEvent) error {
			if rec.first.IsZero() {
				rec.first = time.Now()
			}
			rec.probes++
			return nil
		})
		if keep {
			rec.frontier = f
		}
	}
	rec.done = time.Now()
	switch {
	case err != nil:
		return err
	case rec.doneEv.State != service.StateDone:
		return fmt.Errorf("job %s ended %s: %s", st.ID, rec.doneEv.State, rec.doneEv.Error)
	case rec.first.IsZero():
		return fmt.Errorf("job %s streamed no rows", st.ID)
	}
	return nil
}

func (in jobInput) body() any {
	if in.sweep != nil {
		return in.sweep
	}
	return in.search
}

// memStats is the part of runtime.MemStats the per-layer metrics read.
type memStats struct{ totalAlloc, mallocs uint64 }

func (m memStats) sub(o memStats) memStats {
	return memStats{m.totalAlloc - o.totalAlloc, m.mallocs - o.mallocs}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
