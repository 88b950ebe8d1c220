package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the census-pass golden file")

// censusPass is the part of a Skeleton its census pass decides: roofline
// kernel time and its serial share, the per-step host exposure, the graph
// capture cost and the chunk jitter spread (a function of the launch
// count).
type censusPass struct {
	GPUCompute     time.Duration `json:"gpu_compute"`
	SerialPart     time.Duration `json:"serial_part"`
	CPUExposedStep time.Duration `json:"cpu_exposed_step"`
	GraphCapture   time.Duration `json:"graph_capture"`
	ChunkCV        float64       `json:"chunk_cv"`
}

func passOf(s Skeleton) censusPass {
	return censusPass{s.GPUCompute, s.SerialPart, s.CPUExposedStep, s.GraphCapture, s.ChunkCV}
}

// censusPassCase is one NewSkeleton call: census set, arch, ablations and
// launch mode.
type censusPassCase struct {
	name string
	cen  int // index into censusPassSets
	dap  int
	o    Options
}

// censusPassSets are the census sets the pass is pinned on: the baseline,
// ScaleFold at every DAP degree, and Figure 7's DAP-8 census without
// torch.compile.
func censusPassSets() (names []string, sets []workload.Options) {
	names = append(names, "baseline")
	sets = append(sets, workload.Baseline())
	for _, d := range []int{1, 2, 4, 8} {
		names = append(names, fmt.Sprintf("scalefold%d", d))
		sets = append(sets, workload.ScaleFold(d))
	}
	noCompile := workload.ScaleFold(8)
	noCompile.TorchCompile = false
	return append(names, "scalefold8-nocompile"), append(sets, noCompile)
}

// censusPassCases crosses every census set with {H100, A100} ×
// FlatEfficiency × ZeroSerial × {CUDAGraph, ZeroLaunchOverhead, neither}.
func censusPassCases() []censusPassCase {
	names, sets := censusPassSets()
	var cases []censusPassCase
	for i, cen := range sets {
		for _, arch := range []gpu.Arch{gpu.H100(), gpu.A100()} {
			for _, flat := range []bool{false, true} {
				for _, zeroSerial := range []bool{false, true} {
					for _, launch := range []string{"eager", "graph", "zero-launch"} {
						o := defaultOptions(1)
						o.Arch, o.FlatEfficiency, o.ZeroSerial = arch, flat, zeroSerial
						o.CUDAGraph = launch == "graph"
						o.ZeroLaunchOverhead = launch == "zero-launch"
						cases = append(cases, censusPassCase{
							name: fmt.Sprintf("%s/%s/flat=%t/zero-serial=%t/%s", names[i], arch.Name, flat, zeroSerial, launch),
							cen:  i, dap: cen.DAP, o: o,
						})
					}
				}
			}
		}
	}
	return cases
}

// TestNewSkeletonCensusPassPinned pins the census pass of NewSkeleton on
// every case of censusPassCases to testdata/census_pass.golden, then has 8
// goroutines run the same cases, in different orders, on one shared
// Program per census set (as workload.Full shares one across a process):
// each result must equal its golden entry. Regenerate deliberately with
// `go test ./internal/cluster -run CensusPassPinned -update`.
func TestNewSkeletonCensusPassPinned(t *testing.T) {
	path := filepath.Join("testdata", "census_pass.golden")
	cases := censusPassCases()
	_, sets := censusPassSets()
	progs := make([]*workload.Program, len(sets))
	for i, cen := range sets {
		progs[i] = workload.Census(model.FullConfig(), cen)
	}
	const ranks = 64
	got := make(map[string]censusPass, len(cases))
	for _, c := range cases {
		s, err := NewSkeleton(progs[c.cen], ranks, c.dap, c.o)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name] = passOf(s)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	want := map[string]censusPass{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s has %d entries, want %d", path, len(want), len(cases))
	}
	for _, c := range cases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: census pass drifted from %s:\n got %+v\nwant %+v", c.name, path, got[c.name], want[c.name])
		}
	}

	// The same cases on fresh shared Programs, 8 goroutines at once, each
	// starting at its own offset so first uses of one Program interleave.
	for i, cen := range sets {
		progs[i] = workload.Census(model.FullConfig(), cen)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				c := cases[(i+w*len(cases)/workers)%len(cases)]
				s, err := NewSkeleton(progs[c.cen], ranks, c.dap, c.o)
				if err != nil {
					t.Error(err)
					return
				}
				if passOf(s) != want[c.name] {
					t.Errorf("worker %d, %s: concurrent census pass %+v, want %+v", w, c.name, passOf(s), want[c.name])
				}
			}
		}()
	}
	wg.Wait()
}
