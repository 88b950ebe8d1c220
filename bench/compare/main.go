// Command compare sets two sets of benchmark results side by side. Each
// result file holds the standard output of one benchmark run; a set is a
// directory of them, or a list of files. For every workload and metric it
// prints each set's median and quartiles and, for the end-to-end metrics,
// whether set B stays within the BENCHMARK.json bound of set A. When one set
// is plain and the other traced, it also prints the tracing overhead on
// cells_per_s. Build and run it from the repository root:
//
//	go build -C bench -o ../.bench_build/compare ./compare
//	.bench_build/compare results/base results/head
//
// It exits 1 when a run reports incorrect output, or an end-to-end metric
// moves beyond its bound or spreads wider than it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchmark is the part of BENCHMARK.json compare reads.
type benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one result file: the report line and the result line.
type run struct {
	Report struct {
		Workload string            `json:"workload"`
		Traced   bool              `json:"traced"`
		Host     map[string]any    `json:"host"`
		EndToEnd map[string]metric `json:"end_to_end"`
	} `json:"report"`
	Correct bool              `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] SET_A SET_B\n"+
			"  a set is a directory of result files or a comma-separated list of files\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var bm benchmark
	if err := readJSON(*benchPath, &bm); err != nil {
		fail(err)
	}
	a, err := loadSet(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	b, err := loadSet(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	if !compare(os.Stdout, bm, a, b) {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "compare: %v\n", err)
	os.Exit(2)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadSet reads a set's result files, grouped by workload.
func loadSet(arg string) (map[string][]run, error) {
	paths := strings.Split(arg, ",")
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		paths = nil
		for _, e := range entries {
			if !e.IsDir() {
				paths = append(paths, filepath.Join(arg, e.Name()))
			}
		}
	}
	set := map[string][]run{}
	for _, p := range paths {
		r, err := readRun(p)
		if err != nil {
			return nil, err
		}
		set[r.Report.Workload] = append(set[r.Report.Workload], r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result files", arg)
	}
	return set, nil
}

// readRun parses a run's report line (the line before the last) and result
// line (the last).
func readRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return run{}, fmt.Errorf("%s: want a report line and a result line", path)
	}
	var r run
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r); err != nil {
		return run{}, fmt.Errorf("%s: report line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return run{}, fmt.Errorf("%s: result line: %w", path, err)
	}
	if r.Report.Workload == "" {
		return run{}, fmt.Errorf("%s: report names no workload", path)
	}
	return r, nil
}

// stats are a sample's median and quartiles, computed as Python's
// statistics.median and statistics.quantiles(n=4) do.
type stats struct{ q1, med, q3 float64 }

func summarize(xs []float64) stats {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return stats{med, med, med}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return stats{q[0], med, q[2]}
}

func (s stats) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

func (s stats) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3)
}

// values collects one metric across runs, from the report's end-to-end
// block (present in plain and traced runs) or from the per-layer result
// metrics of traced runs.
func values(runs []run, name string, endToEnd bool) []float64 {
	var out []float64
	for _, r := range runs {
		m, ok := r.Report.EndToEnd[name]
		if !endToEnd {
			m, ok = r.Metrics[name]
			ok = ok && r.Report.Traced
		}
		if ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func traced(runs []run) bool { return len(runs) > 0 && runs[0].Report.Traced }

// compare prints the comparison and reports whether every run was correct
// and every end-to-end metric of every workload both sets ran agrees within
// its bound.
func compare(w *os.File, bm benchmark, a, b map[string][]run) bool {
	out := bufio.NewWriter(w)
	defer out.Flush()
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	agree := true
	outside := 0
	for _, wl := range names {
		ra, rb := a[wl], b[wl]
		fmt.Fprintf(out, "\n== %s  A: %d %s runs  B: %d %s runs\n", wl, len(ra), kind(ra), len(rb), kind(rb))
		fmt.Fprintf(out, "   A host %v\n   B host %v\n", hosts(ra), hosts(rb))
		if ia, ib := incorrect(ra), incorrect(rb); ia+ib > 0 {
			fmt.Fprintf(out, "   incorrect runs: A %d, B %d\n", ia, ib)
			agree = false
		}
		fmt.Fprintf(out, "   %-34s %-8s %-32s %-32s %8s %6s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
		for _, m := range bm.EndToEnd {
			va, vb := values(ra, m.Name, true), values(rb, m.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			change := (sb.med - sa.med) / sa.med
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "agree"
			switch {
			case m.Name != "setup_s" && (sa.spread() > m.Bound || sb.spread() > m.Bound):
				verdict = "unresolved: spread wider than bound"
			case worse > m.Bound:
				verdict = "worse beyond bound"
			case -worse > m.Bound:
				verdict = "better beyond bound"
			}
			if verdict != "agree" {
				agree = false
				outside++
			}
			fmt.Fprintf(out, "   %-34s %-8s %-32s %-32s %+7.1f%% %5.0f%%  %s\n", m.Name, m.Unit, sa, sb, 100*change, 100*m.Bound, verdict)
		}
		if traced(ra) || traced(rb) {
			for _, m := range bm.PerLayer {
				va, vb := values(ra, m.Name, false), values(rb, m.Name, false)
				if len(va) == 0 && len(vb) == 0 {
					continue
				}
				fmt.Fprintf(out, "   %-34s %-8s %-32s %-32s\n", m.Name, m.Unit, fmtStats(va), fmtStats(vb))
			}
		}
		if traced(ra) != traced(rb) {
			plain, tr := ra, rb
			if traced(ra) {
				plain, tr = rb, ra
			}
			p, t := summarize(values(plain, "cells_per_s", true)), summarize(values(tr, "cells_per_s", true))
			fmt.Fprintf(out, "   tracing overhead on cells_per_s: %.1f%% (plain median %.4g, traced median %.4g)\n",
				100*(1-t.med/p.med), p.med, t.med)
		}
	}
	if agree {
		fmt.Fprintf(out, "\nall end-to-end metrics agree within their bounds\n")
	} else {
		fmt.Fprintf(out, "\n%d end-to-end metric(s) outside their bounds\n", outside)
	}
	return agree
}

func fmtStats(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return summarize(xs).String()
}

func incorrect(runs []run) int {
	n := 0
	for _, r := range runs {
		if !r.Correct {
			n++
		}
	}
	return n
}

func kind(runs []run) string {
	if traced(runs) {
		return "traced"
	}
	return "plain"
}

// hosts lists the distinct host stamps of the runs.
func hosts(runs []run) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		h := fmt.Sprintf("gomaxprocs=%v cpu=%q go=%v rev=%v",
			r.Report.Host["gomaxprocs"], r.Report.Host["cpu_model"], r.Report.Host["go_version"], r.Report.Host["revision"])
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}
