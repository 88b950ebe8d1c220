package service

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/workload"
)

func tinyScenario(ablate string) scenario.Scenario {
	return scenario.Scenario{
		Platform: "H100", Ranks: 32, DAP: 2,
		Census: func() workload.Options {
			o := workload.ScaleFold(2)
			o.TorchCompile = false
			return o
		}(),
		CUDAGraph: true, NonBlocking: true,
		Ablation: ablate,
		Seed:     1, Steps: 2,
	}
}

// TestScenarioJobsRunAndMatchGridCells submits explicit Scenario JSON —
// the canonical wire format — and checks the cells execute, stream, and
// share store keys with grid-submitted equivalents (the whole point of one
// descriptor from flag to store key).
func TestScenarioJobsRunAndMatchGridCells(t *testing.T) {
	srv, client, stop := newTestServer(t, Config{Workers: 2})
	defer stop()

	spec := JobSpec{Scenarios: []scenario.Scenario{tinyScenario(""), tinyScenario("zero-launch")}}
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 2 {
		t.Fatalf("explicit-scenario job sized %d cells, want 2", st.Cells)
	}
	rows, done := collectRows(t, client, st.ID)
	if done.State != StateDone || done.Rows != 2 || done.Skipped != 0 {
		t.Fatalf("job ended %+v", done)
	}
	for i, ev := range rows {
		if ev.Status != "ok" {
			t.Fatalf("row %d not ok: %+v", i, ev)
		}
	}

	// Every persisted key is a current-version scenario fingerprint, and the
	// two cells' keys are exactly the scenarios' own fingerprints.
	keys := srv.Store().Keys()
	if len(keys) != 2 {
		t.Fatalf("store holds %d keys, want 2", len(keys))
	}
	want := map[string]bool{
		tinyScenario("").Fingerprint():            true,
		tinyScenario("zero-launch").Fingerprint(): true,
	}
	for _, k := range keys {
		if !scenario.IsCurrentKey(k) {
			t.Fatalf("store key %q is not version-prefixed", k)
		}
		if !want[k] {
			t.Fatalf("store key %q is not a submitted scenario's fingerprint", k)
		}
	}

	// A second, identical job is served entirely from the store.
	st2, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, done2 := collectRows(t, client, st2.ID)
	if done2.Simulated != 0 {
		t.Fatalf("resubmitted scenarios re-simulated %d cells, want 0", done2.Simulated)
	}
}

// TestSimWorkersJobIsClampedAndByteIdentical pins the server-side contract
// of the sim_workers execution knob: an absurd width cannot multiply the
// server's compute concurrency past its pool (the clamp in runSweep), and the
// rows stream byte-identical to a serial job — SimWorkers is excluded from
// the fingerprint, so both jobs resolve to the same store records.
func TestSimWorkersJobIsClampedAndByteIdentical(t *testing.T) {
	_, client, stop := newTestServer(t, Config{Workers: 2})
	defer stop()

	serial, err := client.Submit(JobSpec{Scenarios: []scenario.Scenario{tinyScenario("")}})
	if err != nil {
		t.Fatal(err)
	}
	serialRows, done := collectRows(t, client, serial.ID)
	if done.State != StateDone {
		t.Fatalf("serial job ended %+v", done)
	}

	// Both clamp routes: the spec-level knob and a scenario carrying its
	// own absurd sim_workers (which bypasses the spec field entirely).
	perScenario := tinyScenario("")
	perScenario.SimWorkers = 4096
	for name, spec := range map[string]JobSpec{
		"spec-level":   {Scenarios: []scenario.Scenario{tinyScenario("")}, SimWorkers: 4096},
		"per-scenario": {Scenarios: []scenario.Scenario{perScenario}},
	} {
		sharded, err := client.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shardedRows, done2 := collectRows(t, client, sharded.ID)
		if done2.State != StateDone {
			t.Fatalf("%s: sharded job ended %+v", name, done2)
		}
		if done2.StoreHits != 1 {
			t.Fatalf("%s: sharded job must hit the serial job's store record, got %+v", name, done2)
		}
		if len(serialRows) != 1 || len(shardedRows) != 1 {
			t.Fatalf("%s: rows: %d vs %d, want 1 each", name, len(serialRows), len(shardedRows))
		}
		for k, v := range serialRows[0].Data {
			if shardedRows[0].Data[k] != v {
				t.Fatalf("%s: sim_workers changed row field %q: %q vs %q", name, k, v, shardedRows[0].Data[k])
			}
		}
	}
}

// TestBadScenarioIs400NotPanic pins the ablation satellite: an unknown
// ablation (or any invalid scenario) in the wire spec is a validation error
// at submission — HTTP 400 with the offending name — not a panic that a
// recovered handler would turn into a 500 or that would kill a scheduler
// goroutine later.
func TestBadScenarioIs400NotPanic(t *testing.T) {
	_, client, stop := newTestServer(t, Config{Workers: 1})
	defer stop()

	for name, spec := range map[string]JobSpec{
		"unknown ablation":    {Scenarios: []scenario.Scenario{tinyScenario("zero-lunch")}},
		"unknown platform":    {Scenarios: []scenario.Scenario{{Platform: "TPU", Ranks: 8, DAP: 1, Seed: 1}}},
		"infeasible geometry": {Scenarios: []scenario.Scenario{{Platform: "H100", Ranks: 30, DAP: 4, Seed: 1}}},
		"grid ablation typo":  {Ablations: []string{"zero-lunch"}},
	} {
		_, err := client.Submit(spec)
		if err == nil {
			t.Fatalf("%s: submission must be refused", name)
		}
		if !strings.Contains(err.Error(), "HTTP 400") {
			t.Fatalf("%s: want HTTP 400, got %v", name, err)
		}
	}
}

// TestStoreStatusCountsLegacyKeys pins the versioned-out behavior on the
// wire: a store directory written by a pre-scenario build opens with its
// old-format records counted as legacy_keys in /v1/store — never served as
// results — while new cells land under current-version keys.
func TestStoreStatusCountsLegacyKeys(t *testing.T) {
	dir := t.TempDir()
	pre, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Put("census{...}|ranks=32|legacy-dump", cluster.Result{MeanStep: 12345}); err != nil {
		t.Fatal(err)
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	_, client, stop := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	defer stop()
	st, err := client.Submit(JobSpec{Scenarios: []scenario.Scenario{tinyScenario("")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := collectRows(t, client, st.ID); done.State != StateDone || done.Simulated != 1 {
		t.Fatalf("legacy record must not satisfy the cell: %+v", done)
	}
	status, err := client.StoreStatus()
	if err != nil {
		t.Fatal(err)
	}
	if status.Keys != 2 || status.LegacyKeys != 1 {
		t.Fatalf("store status %+v, want 2 keys with 1 legacy", status)
	}
}
