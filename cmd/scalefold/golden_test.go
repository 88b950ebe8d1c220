package main

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite the CLI golden files")

// runMainEnv, set to 1, makes the test binary run main() on its arguments
// instead of the tests, so a test can drive the real command line in a
// child process.
const runMainEnv = "SCALEFOLD_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs `scalefold args...` in a child process and returns its stdout
// and stderr; a nonzero exit fails the test.
func cli(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("scalefold %s: %v\n%s", strings.Join(args, " "), err, errOut.Bytes())
	}
	return out.Bytes(), errOut.Bytes()
}

// golden compares got with testdata/<name>.golden, or rewrites the file
// under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// optimizeArgs is the search TestCLIGolden pins and TestCLIServerGolden
// runs both in-process and with -server.
var optimizeArgs = []string{"optimize", "-ranks", "64,128", "-dap", "8", "-budget", "10", "-steps", "8", "-quiet"}

// TestCLIGolden pins the stdout of the in-process commands, and the stderr
// where it carries more than progress: a skipped cell's reason and the -h
// texts. Cases that may run exact cells are skipped under -short, like the
// figure tests. Regenerate deliberately with
// `go test ./cmd/scalefold -run Golden -update`.
func TestCLIGolden(t *testing.T) {
	grid := []string{"sweep", "-ranks", "64", "-dap", "1,2,8", "-ablate", "none,zero-comm", "-steps", "4", "-quiet"}
	resilience := []string{"resilience", "-ranks", "64,128", "-dap", "8", "-fail", "0,1e-4,1e-3,1e-2", "-steps", "8", "-quiet"}
	for _, c := range []struct {
		name   string
		exact  bool // may simulate: skipped under -short
		stderr bool // pin stderr after stdout
		args   []string
	}{
		{"sweep-grid", true, false, grid},
		{"sweep-grid-json", true, false, append(grid[:len(grid):len(grid)], "-csv", "", "-json", "-")},
		{"sweep-skip", true, true, []string{"sweep", "-ranks", "64,60", "-dap", "8", "-ablate", "none", "-steps", "4", "-quiet"}},
		{"sweep-analytic", false, false, []string{"sweep", "-mode", "analytic", "-quiet"}},
		{"sweep-auto-perturb", true, false, []string{"sweep", "-mode", "auto", "-ranks", "128", "-dap", "8", "-steps", "8",
			"-perturb", `{"fail_prob":1e-3,"restart_cost_s":60}`, "-quiet"}},
		{"resilience", true, false, resilience},
		{"resilience-auto", true, false, append(resilience[:len(resilience):len(resilience)], "-mode", "auto")},
		{"optimize", true, false, optimizeArgs},
		{"table1", false, false, []string{"table1"}},
		{"fig3", true, false, []string{"fig3"}},
		{"fig7", true, false, []string{"fig7"}},
		{"fig8", true, false, []string{"fig8"}},
		{"sweep-help", false, true, []string{"sweep", "-h"}},
		{"resilience-help", false, true, []string{"resilience", "-h"}},
		{"optimize-help", false, true, []string{"optimize", "-h"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.exact && testing.Short() {
				t.Skip("runs exact cells; skipped in -short mode")
			}
			out, errOut := cli(t, c.args...)
			if c.stderr {
				out = append(append(out, "--- stderr ---\n"...), errOut...)
			}
			golden(t, c.name, out)
		})
	}
}

// jobTimes matches the wall-clock fields of a job status.
var jobTimes = regexp.MustCompile(`"(created|started|finished)": "[^"]*"`)

// TestCLIServerGolden pins the client commands against an in-process
// memory-store server: the NDJSON a streamed sweep job prints and the job
// listing with its timestamps masked. `optimize -server` must print the
// frontier the local run prints.
func TestCLIServerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact cells; skipped in -short mode")
	}
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	out, _ := cli(t, "submit", "-server", ts.URL, "-stream", "-workers", "1",
		"-ranks", "64,60", "-dap", "2,8", "-ablate", "none,zero-comm", "-steps", "4")
	golden(t, "submit-stream", out)
	remote, _ := cli(t, append(optimizeArgs[:len(optimizeArgs):len(optimizeArgs)], "-server", ts.URL)...)
	if local, _ := cli(t, optimizeArgs...); !bytes.Equal(remote, local) {
		t.Fatalf("optimize -server printed\n%s\nthe local run printed\n%s", remote, local)
	}
	out, _ = cli(t, "jobs", "-server", ts.URL)
	golden(t, "jobs", jobTimes.ReplaceAll(out, []byte(`"$1": "<masked>"`)))
}
