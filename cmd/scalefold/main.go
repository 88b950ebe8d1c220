// Command scalefold regenerates every table and figure of the ScaleFold
// paper's evaluation on the simulated substrate, and runs free-form scenario
// sweeps over the simulator:
//
//	scalefold table1   kernel-category breakdown (Table 1)
//	scalefold fig3     scalability-barrier ablation for DAP-2/4/8 (Figure 3)
//	scalefold fig4     sorted batch-preparation-time curve (Figure 4)
//	scalefold fig5     blocking vs non-blocking pipeline timeline (Figure 5)
//	scalefold fig7     step-time comparison across systems (Figure 7)
//	scalefold fig8     cumulative optimization ladder (Figure 8)
//	scalefold fig9     time-to-train breakdown (Figure 9)
//	scalefold fig10    MLPerf HPC time-to-train (Figure 10)
//	scalefold fig11    from-scratch pretraining curve (Figure 11)
//	scalefold all      everything above in order
//	scalefold sweep    parallel scenario sweep over axis flags (see -h)
//	scalefold resilience  goodput-vs-failure-rate sweep (perturbation layer)
//	scalefold optimize adaptive search: cliff bisection, knee, Pareto frontier
//	scalefold serve    long-running sweep server: HTTP job queue + store
//	scalefold worker   sweep-fabric worker: claim cells from a coordinator
//	scalefold submit   submit a sweep job to a running server
//	scalefold jobs     list, inspect or cancel server jobs
//	scalefold trace    download a job's Chrome trace-event timeline
//	scalefold help     full command reference (docs/cli.md, embedded)
//
// See docs/cli.md for the full reference — `scalefold help` prints the same
// text.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/docs"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/perturb"
	"repro/internal/pipeline"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// runners maps figure subcommands to their printers; allRunners is their
// `scalefold all` execution order. Every printer resolves its cells through
// the one Resolver main builds, so figures share cells through its store.
var runners = map[string]func(*scalefold.Resolver){
	"table1": table1, "fig3": fig3, "fig4": fig4, "fig5": fig5,
	"fig7": fig7, "fig8": fig8, "fig9": fig9, "fig10": fig10, "fig11": fig11,
}

var allRunners = []string{"table1", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11"}

func main() {
	cmd := "all"
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	switch cmd {
	case "help", "-h", "--help":
		fmt.Print(docs.CLI)
		return
	case "sweep":
		sweepCmd(os.Args[2:])
		return
	case "resilience":
		resilienceCmd(os.Args[2:])
		return
	case "optimize":
		optimizeCmd(os.Args[2:])
		return
	case "serve":
		serveCmd(os.Args[2:])
		return
	case "worker":
		workerCmd(os.Args[2:])
		return
	case "submit":
		submitCmd(os.Args[2:])
		return
	case "jobs":
		jobsCmd(os.Args[2:])
		return
	case "trace":
		traceCmd(os.Args[2:])
		return
	case "store":
		storeCmd(os.Args[2:])
		return
	}
	run, ok := runners[cmd]
	if !ok && cmd != "all" {
		os.Exit(unknownCommand(os.Stderr, cmd))
	}
	// Figure commands (and `all`) resolve through one Resolver, so a cell
	// several figures share resolves once.
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	storeDir := fs.String("store", "", `persistent result-store directory ("" = off)`)
	var args []string
	if len(os.Args) > 2 {
		args = os.Args[2:]
	}
	fs.Parse(args)
	r, closeStore := localResolver(cmd, *storeDir)
	defer closeStore()
	if cmd == "all" {
		for _, name := range allRunners {
			runners[name](r)
			fmt.Println()
		}
		return
	}
	run(r)
}

// unknownCommand reports an unrecognized subcommand on w: the command list
// is parsed out of the embedded docs/cli.md, so the message can never drift
// from the committed reference. Returns the process exit status (2).
func unknownCommand(w io.Writer, cmd string) int {
	fmt.Fprintf(w, "scalefold: unknown command %q\n\ncommands:\n", cmd)
	for _, name := range docs.Subcommands() {
		fmt.Fprintf(w, "  %s\n", name)
	}
	fmt.Fprintln(w, "\nRun `scalefold help` for the full reference.")
	return 2
}

// localResolver builds the Resolver an in-process command resolves its
// cells through, counting into fresh metrics. Its store is in memory; with
// a -store directory it is that persistent store instead, so cells stored
// by earlier runs, sweeps or server jobs are not resolved again, and every
// failed store write is reported on stderr. The returned func closes the
// store.
func localResolver(cmd, dir string) (*scalefold.Resolver, func()) {
	r := &scalefold.Resolver{Store: store.NewMem[cluster.Result](), Metrics: &scalefold.SweepMetrics{}}
	if dir == "" {
		return r, func() {}
	}
	ds, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
	storeErr := func(err error) { fmt.Fprintf(os.Stderr, "%s: store: %v\n", cmd, err) }
	r.Store, r.OnStoreErr = ds, storeErr
	return r, func() {
		if err := ds.Close(); err != nil {
			storeErr(err)
		}
	}
}

// progress returns a local sweep's stderr progress printer; nil under
// -quiet.
func progress(quiet bool) func(sweep.Progress) {
	if quiet {
		return nil
	}
	return func(ev sweep.Progress) {
		note := ""
		if ev.Cached {
			note = " (memoized)"
		}
		fmt.Fprintf(os.Stderr, "[%3d/%3d] %s%s (%v)\n",
			ev.Done, ev.Total, ev.Label, note, ev.Elapsed.Round(time.Millisecond))
	}
}

// writeOutput writes one of cmd's outputs to path: "-" is stdout, "" skips
// it. Failures exit 2.
func writeOutput(cmd, path, kind string, write func(io.Writer) error) {
	var err error
	switch path {
	case "":
		return
	case "-":
		err = write(os.Stdout)
	default:
		f, cerr := os.Create(path)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, cerr)
			os.Exit(2)
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing %s: %v\n", cmd, kind, err)
		os.Exit(2)
	}
}

// parseIntList converts a comma-separated flag value to ints.
func parseIntList(cmd, flagName, s string) []int {
	var out []int
	for _, f := range sweep.ParseList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -%s: %q is not an integer\n", cmd, flagName, f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// axisFlags registers the scenario-axis flags shared by `sweep` (local
// execution) and `submit` (remote execution), so the two subcommands cannot
// drift apart. Flags parse into canonical Scenarios: either through the
// grid axes, or verbatim via `-scenarios` (a JSON file of explicit
// scenario.Scenario descriptors, which supersedes the axis flags).
type axisFlags struct {
	arch, ranks, dap, ablate *string
	profile, scenarios       *string
	seeds, steps, workers    *int
	simWorkers               *int
	perturb, mode            *string
}

func addAxisFlags(fs *flag.FlagSet) *axisFlags {
	d := scalefold.DefaultSweepSpec()
	return &axisFlags{
		arch: fs.String("arch", strings.Join(d.Arches, ","),
			"comma-separated platform profiles ("+strings.Join(scenario.PlatformNames(), ", ")+")"),
		ranks:   fs.String("ranks", joinInts(d.Ranks), "comma-separated GPU counts"),
		dap:     fs.String("dap", joinInts(d.DAPs), "comma-separated DAP widths"),
		ablate:  fs.String("ablate", strings.Join(d.Ablations, ","), "comma-separated barrier ablations"),
		seeds:   fs.Int("seeds", d.Seeds, "seed replicas per scenario"),
		profile: fs.String("profile", d.Profile, "base config: scalefold, baseline or fastfold"),
		scenarios: fs.String("scenarios", "",
			`JSON file of explicit scenario descriptors ("-" = stdin); supersedes the axis flags`),
		steps:   fs.Int("steps", 0, "simulated steps per cell (0 = simulator default)"),
		workers: fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS / server pool)"),
		simWorkers: fs.Int("sim-workers", 0, `goroutines sharding each simulation's per-rank work
(0/1 = serial; execution detail — results and fingerprints are
identical for every value)`),
		perturb: fs.String("perturb", "",
			`perturbation spec: a JSON file path, or inline JSON starting with "{"
(stragglers/stalls/failures; see docs/cli.md); applied to every grid
cell and to explicit scenarios without their own "perturb" block`),
		mode: fs.String("mode", "",
			`result resolution mode: "exact" (default; run the simulator),
"analytic" (closed-form estimate with error bounds), or "auto"
(estimate, escalating to exact the cells whose bounds straddle a
decision boundary); applied to every grid cell and to explicit
scenarios without their own "mode" field`),
	}
}

// checkMode validates a -mode flag value against the recognized resolution
// modes. Split from parseMode so the message is testable without os.Exit.
func checkMode(v string) error {
	if !scenario.ValidMode(v) {
		return fmt.Errorf("unknown mode %q (want one of %v)", v, scenario.Modes)
	}
	return nil
}

// parseMode resolves a -mode flag value; an unknown spelling exits 2 listing
// the valid set, mirroring the server's 400 at POST /v1/jobs.
func parseMode(cmd, v string) string {
	if err := checkMode(v); err != nil {
		fmt.Fprintf(os.Stderr, "%s: -mode: %v\n", cmd, err)
		os.Exit(2)
	}
	return v
}

// parsePerturb resolves a -perturb flag value: empty means none, a value
// starting with "{" is inline JSON, anything else is a file path. The spec
// is strict-decoded and validated; errors exit 2.
func parsePerturb(cmd, v string) *perturb.Spec {
	if v == "" {
		return nil
	}
	data := []byte(v)
	if !strings.HasPrefix(strings.TrimSpace(v), "{") {
		var err error
		if data, err = os.ReadFile(v); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -perturb: %v\n", cmd, err)
			os.Exit(2)
		}
	}
	sp, err := perturb.ParseJSON(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: -perturb: %v\n", cmd, err)
		os.Exit(2)
	}
	return &sp
}

// scenarioList loads and validates the explicit-scenario file, if any.
func (a *axisFlags) scenarioList(cmd string) []scenario.Scenario {
	if *a.scenarios == "" {
		return nil
	}
	var data []byte
	var err error
	if *a.scenarios == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*a.scenarios)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
	list, err := scenario.ParseJSONList(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
	for i, sc := range list {
		if err := sc.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: scenarios[%d]: %v\n", cmd, i, err)
			os.Exit(2)
		}
	}
	if len(list) == 0 {
		fmt.Fprintf(os.Stderr, "%s: %s holds no scenarios\n", cmd, *a.scenarios)
		os.Exit(2)
	}
	return list
}

// spec parses the flags into the one sweep spec `sweep` runs and `submit`
// posts as its job.
func (a *axisFlags) spec(cmd string) scalefold.SweepSpec {
	return scalefold.SweepSpec{
		Profile:    *a.profile,
		Arches:     sweep.ParseList(*a.arch),
		Ranks:      parseIntList(cmd, "ranks", *a.ranks),
		DAPs:       parseIntList(cmd, "dap", *a.dap),
		Ablations:  sweep.ParseList(*a.ablate),
		Seeds:      *a.seeds,
		Steps:      *a.steps,
		Workers:    *a.workers,
		SimWorkers: *a.simWorkers,
		Perturb:    parsePerturb(cmd, *a.perturb),
		Mode:       parseMode(cmd, *a.mode),
		Scenarios:  a.scenarioList(cmd),
	}
}

func sweepCmd(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	axes := addAxisFlags(fs)
	csvPath := fs.String("csv", "-", `CSV destination ("-" = stdout, "" = off)`)
	jsonPath := fs.String("json", "", `JSON destination ("-" = stdout, "" = off)`)
	storeDir := fs.String("store", "", `persistent result-store directory ("" = off): cells already
stored are served without re-simulation, new results are stored for
future sweeps, jobs and figure runs`)
	quiet := fs.Bool("quiet", false, "suppress streaming progress on stderr")
	fs.Parse(args)
	if *csvPath == "-" && *jsonPath == "-" {
		fmt.Fprintln(os.Stderr, `sweep: -csv and -json cannot both target stdout; pass -csv "" for JSON-only output`)
		os.Exit(2)
	}

	spec := axes.spec("sweep")
	var closeStore func()
	spec.Resolver, closeStore = localResolver("sweep", *storeDir)
	defer closeStore()
	t0 := time.Now()
	rows, err := spec.Run(context.Background(), progress(*quiet))
	if err != nil {
		// Grid errors already carry the "sweep:" package prefix.
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if !*quiet {
		runSummary("sweep", len(rows), spec.Resolver.Metrics, time.Since(t0))
	}
	for _, r := range rows {
		if r.SkipReason != "" {
			fmt.Fprintf(os.Stderr, "sweep: skipping %s: %s\n", r.Point.Fingerprint(), r.SkipReason)
		}
	}
	tab := scalefold.SweepTable(rows)
	writeOutput("sweep", *csvPath, "csv", tab.WriteCSV)
	writeOutput("sweep", *jsonPath, "json", tab.WriteJSON)
}

// newLogger maps a -log-level flag value to a structured text logger on
// stderr. "" disables structured logging (nil — packages discard); an unknown
// level exits 2.
func newLogger(cmd, level string) *slog.Logger {
	if level == "" {
		return nil
	}
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		fmt.Fprintf(os.Stderr, "%s: -log-level: unknown level %q (want debug, info, warn or error)\n", cmd, level)
		os.Exit(2)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
}

// runSummary prints the one-line execution accounting every local sweep ends
// with: how many cells ran, how they were satisfied, and the wall time.
func runSummary(cmd string, cells int, met *scalefold.SweepMetrics, wall time.Duration) {
	sim, hits := met.Simulated.Load(), met.StoreHits.Load()
	memo, remote := met.MemoHits.Load(), met.Remote.Load()
	total := sim + hits + memo + remote
	pct := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	fmt.Fprintf(os.Stderr,
		"%s: %d cells in %v — %d simulated, %d store hits (%.0f%%), %d memo hits, %d remote (%.0f%%)\n",
		cmd, cells, wall.Round(time.Millisecond), sim, hits, pct(hits), memo, remote, pct(remote))
}

// parseFloatList converts a comma-separated flag value to float64s.
func parseFloatList(cmd, flagName, s string) []float64 {
	var out []float64
	for _, f := range sweep.ParseList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -%s: %q is not a number\n", cmd, flagName, f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// joinInts/joinFloats render the default specs' axes as flag defaults, so
// the CLI and the library defaults cannot drift apart.
func joinInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func joinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func resilienceCmd(args []string) {
	fs := flag.NewFlagSet("resilience", flag.ExitOnError)
	d := scalefold.DefaultResilienceSpec()
	arch := fs.String("arch", d.Platform,
		"platform profile ("+strings.Join(scenario.PlatformNames(), ", ")+")")
	ranks := fs.String("ranks", joinInts(d.Ranks), "comma-separated GPU counts")
	dapN := fs.Int("dap", d.DAP, "DAP width for every cell")
	failRates := fs.String("fail", joinFloats(d.FailProbs),
		"comma-separated per-rank per-step failure probabilities")
	restartCost := fs.Float64("restart-cost", d.RestartCost,
		"checkpoint-restart cost in seconds per failure")
	perturbFlag := fs.String("perturb", "",
		`base perturbation spec layered under the failure axis (JSON file
path or inline JSON; its fail_prob/restart_cost_s are overridden per
cell)`)
	steps := fs.Int("steps", 0, "simulated steps per cell (0 = simulator default)")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	simWorkers := fs.Int("sim-workers", 0, "goroutines sharding each simulation's per-rank work")
	modeFlag := fs.String("mode", "", `result resolution mode: exact (default), analytic or auto
(see sweep -mode); auto escalates exactly the cells whose goodput
bounds straddle the resilience cliff`)
	csvPath := fs.String("csv", "-", `CSV destination ("-" = stdout, "" = off)`)
	storeDir := fs.String("store", "", `persistent result-store directory ("" = off)`)
	quiet := fs.Bool("quiet", false, "suppress streaming progress on stderr")
	fs.Parse(args)

	spec := scalefold.ResilienceSpec{
		Platform:    *arch,
		Ranks:       parseIntList("resilience", "ranks", *ranks),
		DAP:         *dapN,
		FailProbs:   parseFloatList("resilience", "fail", *failRates),
		RestartCost: *restartCost,
		Base:        parsePerturb("resilience", *perturbFlag),
		Steps:       *steps,
		Workers:     *workers,
		SimWorkers:  *simWorkers,
		Mode:        parseMode("resilience", *modeFlag),
	}
	var closeStore func()
	spec.Resolver, closeStore = localResolver("resilience", *storeDir)
	defer closeStore()
	t0 := time.Now()
	rows, err := spec.Run(context.Background(), progress(*quiet))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if !*quiet {
		runSummary("resilience", len(rows), spec.Resolver.Metrics, time.Since(t0))
	}
	writeOutput("resilience", *csvPath, "csv", scalefold.ResilienceTable(spec, rows).WriteCSV)
}

func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8823", "listen address (host:port; port 0 picks a free one)")
	storeDir := fs.String("store", "scalefold-store", `result store directory ("" = in-memory only)`)
	storeCache := fs.Int("store-cache", 0, "store decoded-value cache entries (0 = built-in default); the index itself holds only disk offsets")
	workers := fs.Int("workers", 0, "shared simulation worker pool across all jobs (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 2, "jobs executing concurrently (they share the worker pool)")
	queue := fs.Int("queue", 64, "queued-job limit before submissions are refused with 503")
	fabricMode := fs.Bool("fabric", false, "coordinator mode: dispatch cells to `scalefold worker` fleet instead of simulating in-process")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "fabric worker heartbeat interval (workers are lost after 3 missed beats)")
	debugAddr := fs.String("debug-addr", "", `net/http/pprof listen address ("" = pprof off); kept off the
API listener so profiling is never exposed where jobs are`)
	logLevel := fs.String("log-level", "", `structured-log level on stderr: debug, info, warn or error
("" = structured logging off)`)
	fs.Parse(args)

	cfg := service.Config{
		StoreDir:      *storeDir,
		StoreCache:    *storeCache,
		Workers:       *workers,
		MaxActiveJobs: *jobs,
		QueueLimit:    *queue,
		Log:           newLogger("serve", *logLevel),
	}
	if *fabricMode {
		cfg.Fabric = &fabric.Config{HeartbeatInterval: *heartbeat}
	}
	srv, err := service.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		// Explicit handlers on a private mux: importing net/http/pprof also
		// registers on http.DefaultServeMux, but the API listener never serves
		// that mux, so the profiling surface exists only on -debug-addr.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: -debug-addr: %v\n", err)
			os.Exit(2)
		}
		go http.Serve(dln, dmux)
		fmt.Fprintf(os.Stderr, "scalefold serve: pprof on http://%s/debug/pprof/\n", dln.Addr())
	}
	storeNote := "in-memory store"
	if *storeDir != "" {
		storeNote = fmt.Sprintf("store %q (%d results)", *storeDir, srv.Store().Len())
	}
	if *fabricMode {
		storeNote += " — coordinator mode (point `scalefold worker -server` here)"
	}
	fmt.Fprintf(os.Stderr, "scalefold serve: listening on http://%s — %s\n", ln.Addr(), storeNote)

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		srv.Close()
		os.Exit(2)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "scalefold serve: shutting down")
	// Cancel jobs first so open NDJSON streams terminate, then drain HTTP.
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: closing store: %v\n", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
}

// workerCmd is the fleet side of the sweep fabric: register with a
// coordinator-mode server, claim cell batches, simulate them, report results.
// With -store, results are shared through a multi-writer directory
// (store.OpenShared) so co-located workers serve each other's finished cells
// without re-simulating.
func workerCmd(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8823", "coordinator base URL (`scalefold serve -fabric`)")
	name := fs.String("name", "", `worker label in fleet listings ("" = hostname-pid)`)
	storeDir := fs.String("store", "", `shared result-store directory ("" = this worker memoizes alone)`)
	poll := fs.Duration("poll", 200*time.Millisecond, "idle claim interval (the coordinator holds an idle claim this long) and transport-retry backoff")
	logLevel := fs.String("log-level", "", `structured-log level on stderr: debug, info, warn or error
("" = structured logging off)`)
	fs.Parse(args)

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &fabric.Worker{Base: *server, Name: *name, Poll: *poll, Log: newLogger("worker", *logLevel)}
	w.OnStoreErr = func(err error) { fmt.Fprintf(os.Stderr, "worker: store: %v\n", err) }
	closeStore := func() {}
	if *storeDir != "" {
		// The lease owner must be path-safe and unique per live process;
		// the default hostname-pid name is both, but -name is free-form, so
		// lease under a sanitized copy.
		owner := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
				return r
			}
			return '_'
		}, *name)
		ss, err := store.OpenShared[cluster.Result](*storeDir, owner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(2)
		}
		w.Store = ss
		// Close syncs and seals this worker's last segment.
		closeStore = func() {
			if err := ss.Close(); err != nil {
				w.OnStoreErr(err)
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "scalefold worker %q: claiming from %s\n", *name, *server)
	err := w.Run(ctx)
	closeStore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "scalefold worker %q: stopped after %d cells (%d rejected)\n",
		*name, w.Completed(), w.Rejected())
}

func submitCmd(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8823", "sweep server base URL")
	axes := addAxisFlags(fs)
	streamFlag := fs.Bool("stream", false, "follow the job's NDJSON stream on stdout until it finishes")
	fs.Parse(args)

	client := &service.Client{Base: *server}
	st, err := client.Submit(axes.spec("submit"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "submit: %v\n", err)
		os.Exit(2)
	}
	if !*streamFlag {
		printJSON(st)
		return
	}
	fmt.Fprintf(os.Stderr, "submit: %s queued (%d cells), streaming\n", st.ID, st.Cells)
	done, err := client.RawStream(st.ID, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "submit: %v\n", err)
		os.Exit(2)
	}
	if done.State != service.StateDone {
		fmt.Fprintf(os.Stderr, "submit: job %s ended %s %s\n", st.ID, done.State, done.Error)
		os.Exit(1)
	}
}

func jobsCmd(args []string) {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8823", "sweep server base URL")
	cancel := fs.String("cancel", "", "cancel the job with this ID")
	fs.Parse(args)

	client := &service.Client{Base: *server}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "jobs: %v\n", err)
		os.Exit(2)
	}
	switch {
	case *cancel != "":
		st, err := client.Cancel(*cancel)
		if err != nil {
			fail(err)
		}
		printJSON(st)
	case fs.NArg() > 0:
		st, err := client.Job(fs.Arg(0))
		if err != nil {
			fail(err)
		}
		printJSON(st)
	default:
		list, err := client.Jobs()
		if err != nil {
			fail(err)
		}
		printJSON(struct {
			Jobs []service.JobStatus `json:"jobs"`
		}{Jobs: list})
	}
}

// traceCmd downloads a job's cell-lifecycle trace as Chrome trace-event JSON
// (GET /v1/jobs/{id}/trace) — open it in chrome://tracing or Perfetto to see
// which worker (or local lane) executed each cell and when.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8823", "sweep server base URL")
	jobID := fs.String("job", "", "job ID to fetch the trace for")
	out := fs.String("o", "-", `output path for the trace JSON ("-" = stdout)`)
	fs.Parse(args)
	if *jobID == "" && fs.NArg() > 0 {
		*jobID = fs.Arg(0)
	}
	if *jobID == "" {
		fmt.Fprintln(os.Stderr, "trace: pass a job ID (-job job-000001, or as the first argument)")
		os.Exit(2)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(2)
		}
		w = f
	}
	client := &service.Client{Base: *server}
	if err := client.Trace(*jobID, w); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(2)
	}
	if *out != "-" {
		if err := w.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s for %s\n", *out, *jobID)
	}
}

// storeCmd is offline/remote store administration. `scalefold store compact`
// rewrites a store down to its live records — shedding overwritten
// duplicates and pre-current-generation keys — either against a directory
// (-dir; the store must not be open elsewhere) or through a running server's
// admin endpoint (-server).
func storeCmd(args []string) {
	if len(args) < 1 || args[0] != "compact" {
		fmt.Fprintln(os.Stderr, "store: usage: scalefold store compact [-dir DIR | -server URL]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("store compact", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory to compact offline (takes the store's writer lock)")
	server := fs.String("server", "", "running sweep server base URL to compact through (POST /v1/store/compact)")
	fs.Parse(args[1:])
	switch {
	case (*dir == "") == (*server == ""):
		fmt.Fprintln(os.Stderr, "store compact: pass exactly one of -dir or -server")
		os.Exit(2)
	case *server != "":
		client := &service.Client{Base: *server}
		st, err := client.CompactStore()
		if err != nil {
			fmt.Fprintf(os.Stderr, "store compact: %v\n", err)
			os.Exit(2)
		}
		printJSON(st)
	default:
		ds, err := store.OpenDisk[cluster.Result](*dir,
			store.WithLegacyKey(func(k string) bool { return !scenario.IsCurrentKey(k) }))
		if err != nil {
			fmt.Fprintf(os.Stderr, "store compact: %v\n", err)
			os.Exit(2)
		}
		st, err := ds.Compact()
		if cerr := ds.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "store compact: %v\n", err)
			os.Exit(2)
		}
		printJSON(st)
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func header(s string) { fmt.Printf("=== %s ===\n", s) }

func table1(*scalefold.Resolver) {
	header("Table 1: kernel breakdown of the AlphaFold training step")
	rows := scalefold.Table1()
	paper := map[string]struct {
		share float64
		calls int
	}{
		"CPU Overhead":     {9.10, 0},
		"Math-bounded":     {24.06, 18147},
		"Memory-bounded":   {65.03, 97749},
		"Memory-operation": {1.82, 34991},
	}
	fmt.Printf("%-18s %14s %14s %10s %10s\n", "Kernel Type", "Runtime%(sim)", "Runtime%(paper)", "#Calls", "#Paper")
	for _, r := range rows {
		p := paper[r.Kind]
		callStr, paperCallStr := "-", "-"
		if r.Calls > 0 {
			callStr = fmt.Sprintf("%d", r.Calls)
			paperCallStr = fmt.Sprintf("%d", p.calls)
		}
		fmt.Printf("%-18s %13.2f%% %13.2f%% %10s %10s\n", r.Kind, 100*r.Share, p.share, callStr, paperCallStr)
	}
	fmt.Printf("total launches per step: %d (paper: 150887)\n", workload.Full(workload.Baseline()).TotalCalls())
}

func fig3(r *scalefold.Resolver) {
	header("Figure 3: barriers to DAP scalability (share of actual-vs-ideal gap)")
	paper := map[int]map[string]float64{
		2: {"CPU overhead": 65, "Imbalance communication": 6, "Serial modules": 14, "Poor kernel scalability": 9, "Communication workload": 6},
		4: {"CPU overhead": 30, "Imbalance communication": 43, "Serial modules": 15, "Poor kernel scalability": 7, "Communication workload": 6},
		8: {"CPU overhead": 18, "Imbalance communication": 54, "Serial modules": 14, "Poor kernel scalability": 9, "Communication workload": 5},
	}
	columns := scalefold.Figure3All(r)
	for _, d := range scalefold.Figure3DAPs {
		fmt.Printf("DAP-%d:\n", d)
		for _, b := range columns[d] {
			fmt.Printf("  %-26s %5.1f%%  (paper %4.0f%%)  gap=%v\n", b.Name, 100*b.Share, paper[d][b.Name], b.Gap.Round(time.Millisecond))
		}
	}
}

func fig4(*scalefold.Resolver) {
	header("Figure 4: sorted batch preparation time (20000 batches)")
	curve := scalefold.PrepTimeCurve(20000)
	n := len(curve)
	quant := func(q float64) float64 { return curve[int(q*float64(n-1))] }
	fmt.Printf("min=%.2fs p50=%.2fs p90=%.2fs p99=%.2fs max=%.2fs\n",
		curve[0], quant(0.5), quant(0.9), quant(0.99), curve[n-1])
	fmt.Println("paper: range ~0.1s to ~100s across three scales, slowest ~10% block the pipeline")
	// A compact log-scale rendering of the sorted curve.
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		v := quant(q)
		bar := int(20 * (1 + logish(v)) / 4)
		if bar < 0 {
			bar = 0
		}
		fmt.Printf("  q%5.1f%% %8.2fs %s\n", 100*q, v, stars(bar))
	}
}

func logish(v float64) float64 {
	l := 0.0
	for v >= 10 {
		v /= 10
		l++
	}
	for v > 0 && v < 1 {
		v *= 10
		l--
	}
	return l
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '*'
	}
	return string(s)
}

func fig5(*scalefold.Resolver) {
	header("Figure 5: blocking vs non-blocking data pipeline (paper's scenario)")
	prep := []time.Duration{1 * time.Second, 7 * time.Second, 3 * time.Second}
	step := 5 * time.Second
	for _, nb := range []bool{false, true} {
		tl := pipeline.AnalyticSim{PrepTimes: prep, Workers: 2, NonBlocking: nb}.Run(step)
		name := "PyTorch default (blocking)"
		if nb {
			name = "ScaleFold non-blocking"
		}
		fmt.Printf("%s:\n", name)
		for k := range tl.DeliverAt {
			fmt.Printf("  step %d: batch %c delivered at t=%v (waited %v)\n",
				k+1, 'a'+rune(tl.YieldOrder[k]), tl.DeliverAt[k], tl.Wait[k])
		}
		fmt.Printf("  total trainer idle: %v\n", tl.TotalWait())
	}
}

func fig7(r *scalefold.Resolver) {
	header("Figure 7: step time across systems (batch 128)")
	fmt.Printf("%-32s %10s %10s\n", "configuration", "sim (s)", "paper (s)")
	for _, r := range scalefold.Figure7(r) {
		fmt.Printf("%-32s %10.2f %10.2f\n", r.Label, r.Seconds, r.Paper)
	}
}

func fig8(r *scalefold.Resolver) {
	header("Figure 8: cumulative optimization ladder (speedup vs A100 reference)")
	fmt.Printf("%-28s %9s %9s %11s\n", "optimization", "step (s)", "speedup", "paper")
	for _, r := range scalefold.Ladder(r) {
		fmt.Printf("%-28s %9.2f %8.2fx %10.2fx\n", r.Label, r.Seconds, r.Speedup, r.Paper)
	}
}

func fig9(r *scalefold.Resolver) {
	header("Figure 9: time-to-train breakdown")
	for _, bar := range scalefold.Figure9(r) {
		fmt.Printf("%s (total %.1f min):\n", bar.Label, bar.Break.Total().Minutes())
		for _, k := range []string{"train", "eval", "train_eval_comm", "init", "compilation"} {
			fmt.Printf("  %-16s %5.1f%%  (paper %4.0f%%)\n", k, 100*bar.Shares[k], 100*bar.PaperShares[k])
		}
	}
}

func fig10(r *scalefold.Resolver) {
	header("Figure 10: MLPerf HPC v3.0 time to train")
	fmt.Printf("%-44s %10s %10s\n", "configuration", "sim (min)", "paper (min)")
	for _, r := range scalefold.Figure10(r) {
		fmt.Printf("%-44s %10.1f %10.1f\n", r.Label, r.Minutes, r.Paper.Minutes())
	}
}

func fig11(r *scalefold.Resolver) {
	header("Figure 11: AlphaFold pretraining from scratch")
	sched, res := scalefold.Figure11(r)
	fmt.Printf("phase 1 (GBS 128): step=%v  phase 2 (GBS 256, no Triton MHA): step=%v\n",
		sched.StepTimeGBS128.Round(time.Millisecond), sched.StepTimeGBS256.Round(time.Millisecond))
	fmt.Printf("avg_lddt_ca at switch (step %d): %.3f (gate: >0.8 = %v)\n",
		sched.SwitchStep, sched.LDDTAt(sched.SwitchStep), res.MetInitial)
	fmt.Printf("steps to 0.9: %d (paper: 50000-60000)   wall time: %.1f h (paper: <10 h)\n",
		res.StepsTotal, res.WallTime.Hours())
	for _, p := range sched.Curve(5000, 55000) {
		fmt.Printf("  step %6d  GBS %3d  avg_lddt_ca %.3f %s\n", p.Step, p.GBS, p.LDDT, stars(int(40*p.LDDT)))
	}
}
