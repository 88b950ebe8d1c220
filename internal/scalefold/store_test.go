package scalefold

import (
	"bytes"
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// tinySpec is a 4-cell sweep (DAP {1,2} × ablation {none, zero-launch}) at
// small rank counts: fast enough to run cold several times per test, real
// enough to exercise the simulator end to end.
func tinySpec(cache *sweep.Cache[cluster.Result]) SweepSpec {
	s := testSpec(2, cache)
	s.DAPs = []int{1, 2}
	s.Ablations = []string{"none", "zero-launch"}
	return s
}

func TestStoreBackedMemoEmitsIdenticalBytes(t *testing.T) {
	cold := sweepCSV(t, tinySpec(nil))

	// Same sweep against a persistent store, fresh in-memory cache each run
	// (as after a restart): first run simulates and fills the store, second
	// run serves every cell from the store — both must emit the bytes of
	// the cold run, for CSV and JSON alike.
	st := store.NewMem[cluster.Result]()
	first := tinySpec(nil)
	first.Resolver = &Resolver{Store: st, Metrics: &SweepMetrics{}}
	firstCSV := sweepCSV(t, first)
	if n := first.Resolver.Metrics.StoreHits.Load(); n != 0 {
		t.Fatalf("first run hit the empty store %d times", n)
	}
	if n := first.Resolver.Metrics.Simulated.Load(); n != 4 {
		t.Fatalf("first run simulated %d cells, want 4", n)
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d results, want 4", st.Len())
	}

	second := tinySpec(nil)
	second.Resolver = &Resolver{Store: st, Metrics: &SweepMetrics{}}
	secondCSV := sweepCSV(t, second)
	if n := second.Resolver.Metrics.Simulated.Load(); n != 0 {
		t.Fatalf("store-warm run re-simulated %d cells, want 0", n)
	}
	if n := second.Resolver.Metrics.StoreHits.Load(); n != 4 {
		t.Fatalf("store-warm run had %d store hits, want 4", n)
	}
	if !bytes.Equal(cold, firstCSV) || !bytes.Equal(cold, secondCSV) {
		t.Fatalf("store-backed memo must emit byte-identical CSV:\ncold:\n%s\nfirst:\n%s\nsecond:\n%s", cold, firstCSV, secondCSV)
	}

	jsonOf := func(s SweepSpec) []byte {
		rows, err := s.Run(t.Context(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SweepTable(rows).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	coldJSON := jsonOf(tinySpec(nil))
	warm := tinySpec(nil)
	warm.Resolver = &Resolver{Store: st}
	if !bytes.Equal(coldJSON, jsonOf(warm)) {
		t.Fatal("store-backed memo must emit byte-identical JSON")
	}
}

func TestStoreSurvivesDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d1, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	first := tinySpec(nil)
	first.Resolver = &Resolver{Store: d1}
	firstCSV := sweepCSV(t, first)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reload the store from disk; the sweep must be served fully
	// from it — cluster.Result must round-trip through the JSON log
	// byte-exactly, down to every emitted duration digit.
	d2, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	second := tinySpec(nil)
	second.Resolver = &Resolver{Store: d2, Metrics: &SweepMetrics{}}
	secondCSV := sweepCSV(t, second)
	if n := second.Resolver.Metrics.Simulated.Load(); n != 0 {
		t.Fatalf("reloaded store must serve every cell, simulated %d", n)
	}
	if !bytes.Equal(firstCSV, secondCSV) {
		t.Fatalf("disk round trip changed emitted bytes:\n%s\nvs\n%s", firstCSV, secondCSV)
	}
}

// TestFigureStoreServesASecondResolver pins how figures share work now
// that no result memo outlives a run: a figure runner on a store-backed
// Resolver fills the store, and a second Resolver over the same store
// re-serves every cell without simulating, with identical output. The
// first pass runs on the figure tests' shared Resolver, so in a full run
// its cells are already stored by TestBaselineDAPSaturates.
func TestFigureStoreServesASecondResolver(t *testing.T) {
	skipIfShort(t)
	want := BaselineDAPSpeedups(figures)
	if _, ok := figures.Store.Get(ReferenceConfig("A100", 128).Fingerprint()); !ok {
		t.Fatal("the figure runner did not fill its Resolver's store")
	}
	var warm SweepMetrics
	got := BaselineDAPSpeedups(&Resolver{Store: figures.Store, Metrics: &warm})
	if n := warm.Simulated.Load(); n != 0 {
		t.Fatalf("second resolver re-simulated %d cells, want 0", n)
	}
	if n := warm.StoreHits.Load(); n != 4 {
		t.Fatalf("second resolver had %d store hits, want 4", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store-served figure differs: %v vs %v", got, want)
	}
}

func TestSweepMetricsCountMemoHits(t *testing.T) {
	cache := sweep.NewCache[cluster.Result]()
	s := tinySpec(cache)
	s.Resolver = &Resolver{Metrics: &SweepMetrics{}}
	if _, err := s.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	s2 := tinySpec(cache)
	s2.Resolver = &Resolver{Metrics: &SweepMetrics{}}
	if _, err := s2.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	if n := s2.Resolver.Metrics.MemoHits.Load(); n != 4 {
		t.Fatalf("cache-warm run had %d memo hits, want 4", n)
	}
	if n := s2.Resolver.Metrics.Simulated.Load(); n != 0 {
		t.Fatalf("cache-warm run simulated %d cells, want 0", n)
	}
}

func TestSweepOnRowStreamsEveryRow(t *testing.T) {
	s := testSpec(2, nil)
	s.Ranks = []int{30} // DAP 4 and 8 infeasible -> skipped rows stream too
	s.Ablations = []string{"none"}
	seen := map[int]SweepRow{}
	var order []int
	s.OnRow = func(i int, row SweepRow) {
		if _, dup := seen[i]; dup {
			t.Errorf("row %d streamed twice", i)
		}
		seen[i] = row
		order = append(order, i)
	}
	rows, err := s.Run(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rows) {
		t.Fatalf("streamed %d rows, want %d", len(seen), len(rows))
	}
	skips := 0
	for i, row := range rows {
		got := seen[i]
		if got.SkipReason != row.SkipReason || got.Res != row.Res {
			t.Fatalf("streamed row %d differs from returned row", i)
		}
		if row.SkipReason != "" {
			skips++
		}
	}
	// Skipped rows stream first, before any executed cell.
	for k := 0; k < skips; k++ {
		if seen[order[k]].SkipReason == "" {
			t.Fatalf("row order %v: first %d events must be the skips", order, skips)
		}
	}
}

// TestSweepGateWrapsColdCellsOnly pins that memo hits never reach the
// Resolver, so only cold cells take a compute slot or a dispatch. Cells
// resolve concurrently, hence the atomic counter.
func TestSweepGateWrapsColdCellsOnly(t *testing.T) {
	var gated atomic.Int64
	counting := func() *Resolver {
		local := &Resolver{}
		return &Resolver{Remote: func(ctx context.Context, c StepConfig) (cluster.Result, error) {
			gated.Add(1)
			res, _, err := local.Resolve(ctx, c)
			return res, err
		}}
	}
	cache := sweep.NewCache[cluster.Result]()
	warm := tinySpec(cache)
	if _, err := warm.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	s := tinySpec(cache)
	s.Resolver = counting()
	if _, err := s.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	if n := gated.Load(); n != 0 {
		t.Fatalf("gate ran %d times on a memo-warm sweep, want 0", n)
	}
	cold := tinySpec(nil)
	cold.Resolver = counting()
	if _, err := cold.Run(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	if n := gated.Load(); n != 4 {
		t.Fatalf("gate ran %d times on a cold sweep, want 4", n)
	}
}

func TestLegacyKeysAreVersionedOutNotSilentlyMatched(t *testing.T) {
	// A store written by a pre-scenario build holds `%+v`-dump keys. The
	// documented behavior after the encoding bump: those records stay in the
	// log (append-only, surfaced as legacy in store stats) but are never
	// matched — every cell re-simulates under its v3 key rather than
	// guessing which old dump it corresponds to.
	dir := t.TempDir()
	d1, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	legacyKey := "census{{false false false false false false true 3 1 false}}|ranks=32|dap=1|arch={A100 7.5e+13 ...}|seed=1"
	poison := cluster.Result{MeanStep: 12345} // would corrupt output if served
	if err := d1.Put(legacyKey, poison); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	spec := tinySpec(nil)
	spec.Resolver = &Resolver{Store: d2, Metrics: &SweepMetrics{}}
	got := sweepCSV(t, spec)
	if n := spec.Resolver.Metrics.StoreHits.Load(); n != 0 {
		t.Fatalf("legacy keys must never satisfy a lookup, got %d store hits", n)
	}
	if n := spec.Resolver.Metrics.Simulated.Load(); n != 4 {
		t.Fatalf("every cell must re-simulate past a legacy-only store, simulated %d", n)
	}
	if !bytes.Equal(got, sweepCSV(t, tinySpec(nil))) {
		t.Fatal("legacy store changed emitted bytes")
	}

	// The legacy record survives (append-only log, counted by version
	// predicate) and every new record carries the current version prefix.
	legacy, current := 0, 0
	for _, k := range d2.Keys() {
		if scenario.IsCurrentKey(k) {
			current++
		} else {
			legacy++
		}
	}
	if legacy != 1 || current != 4 {
		t.Fatalf("store must hold 1 legacy + 4 current keys, got %d + %d", legacy, current)
	}
}
