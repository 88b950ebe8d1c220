// Command bench is the end-to-end benchmark of the scalefold sweep service.
// It runs a real in-process service.Server on loopback HTTP and drives it
// through service.Client, the path `scalefold submit` and `scalefold optimize
// -server` take, under one of five job workloads. Build and run it from the
// repository root with
//
//	bash bench/run.sh --workload cold-exact --seed 1 --seconds 10 --trace 0
//
// Standard output ends with two JSON lines: a report (host stamp, sample
// counts, set-up samples, the end-to-end numbers in traced runs too) and the
// result line {"correct", "attempted", "failed", "metrics"}. A plain run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// reports the per-layer metrics and writes a Chrome trace-event file.
// README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics plus a Chrome trace file")
	flag.StringVar(&cfg.traceFile, "trace-file", "",
		`Chrome trace output of a traced run ("" = .bench_build/trace/<workload>-seed<N>.json)`)
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "work"),
		"directory for the run's stores (the run's subdirectory is removed at exit)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	if cfg.trace && cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	rep, res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	for _, v := range []any{struct {
		Report report `json:"report"`
	}{rep}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
}
