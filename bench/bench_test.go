package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// declared is BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONSchema checks BENCHMARK.json against the benchmark: the
// declared counts and name syntax, the workloads the program runs, and for
// every per-layer metric a row in README.md naming the end-to-end metric and
// workload it should move.
func TestBenchmarkJSONSchema(t *testing.T) {
	d := readDeclared(t)
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", d.RunSeconds)
	}
	if !slices.Equal(d.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", d.Paths)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var wls []string
	for _, w := range d.Workloads {
		unique(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
		wls = append(wls, w.Name)
	}
	if slices.Sort(wls); !slices.Equal(wls, workloadNames()) {
		t.Errorf("declared workloads %v, program runs %v", wls, workloadNames())
	}
	e2e := map[string]bool{}
	for _, m := range d.EndToEnd {
		unique(m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	setup := slices.IndexFunc(d.EndToEnd, func(m declaredMetric) bool { return m.Name == "setup_s" })
	if setup < 0 || d.EndToEnd[setup].Unit != "s" || d.EndToEnd[setup].Better != "lower" {
		t.Error("setup_s must be declared in s, lower is better")
	}
	for _, m := range d.EndToEnd {
		if setup >= 0 && m.Bound != nil && d.EndToEnd[setup].Bound != nil && *m.Bound > *d.EndToEnd[setup].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // per-layer metric -> its "should move" cell
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) >= 6 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = cells[4]
		}
	}
	tick := regexp.MustCompile("`([^`]+)`")
	for _, m := range d.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound != nil {
			t.Errorf("per-layer %s: unit %q, better %q, bound set %v", m.Name, m.Unit, m.Better, m.Bound != nil)
		}
		cell, ok := rows[m.Name]
		if !ok {
			t.Errorf("per-layer %s has no row in README.md", m.Name)
			continue
		}
		var names, workloads int
		for _, tok := range tick.FindAllStringSubmatch(cell, -1) {
			switch {
			case e2e[tok[1]]:
				names++
			case slices.Contains(wls, tok[1]):
				workloads++
			default:
				t.Errorf("per-layer %s: %q is neither an end-to-end metric nor a workload", m.Name, tok[1])
			}
		}
		if names == 0 || workloads == 0 {
			t.Errorf("per-layer %s: README row names no end-to-end metric and workload it should move", m.Name)
		}
	}
}

// TestSmoke runs every workload traced for about a second at reduced sizes
// and checks that it emits every declared metric with its declared unit,
// passes its output checks, and writes a trace whose cell spans all hang off
// a job.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rep, res, err := run(config{
				workload: wl, seed: 7, seconds: 1200 * time.Millisecond, trace: true,
				traceFile: filepath.Join(dir, "trace.json"), dir: dir, small: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.Failures)
			}
			checkEmitted(t, "end-to-end", d.EndToEnd, rep.EndToEnd)
			checkEmitted(t, "per-layer", d.PerLayer, res.Metrics)
			checkTrace(t, rep.TraceFile)
		})
	}
}

func checkEmitted(t *testing.T, kind string, want []declaredMetric, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d %s metrics emitted, %d declared", len(got), kind, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok || g.Unit != m.Unit {
			t.Errorf("%s metric %s: emitted %+v (present %v), declared unit %s", kind, m.Name, g, ok, m.Unit)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(b, &evs); err != nil {
		t.Fatalf("trace: %v", err)
	}
	ids := map[string]bool{}
	for _, ev := range evs {
		if ev.Ph == "X" {
			ids[ev.Args["id"]] = true
		}
	}
	jobs := 0
	for _, ev := range evs {
		switch {
		case ev.Ph != "X" || ev.Args["id"] == "direct":
		case ev.Args["parent"] == "":
			jobs++
		case !ids[ev.Args["parent"]]:
			t.Errorf("span %s has no parent span %s", ev.Args["id"], ev.Args["parent"])
		}
	}
	if jobs == 0 {
		t.Error("trace has no job spans")
	}
}
