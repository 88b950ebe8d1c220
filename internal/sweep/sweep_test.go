package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func testGrid() Grid {
	return Grid{Axes: []Axis{
		{Name: "arch", Values: []string{"A100", "H100"}},
		{Name: "dap", Values: []string{"1", "2", "4", "8"}},
		{Name: "seed", Values: []string{"1", "2", "3"}},
	}}
}

func TestExpandExhaustiveAndDuplicateFree(t *testing.T) {
	g := testGrid()
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != g.Size() || g.Size() != 2*4*3 {
		t.Fatalf("expanded %d points, want %d", len(points), g.Size())
	}
	seen := map[string]bool{}
	for _, p := range points {
		fp := p.Fingerprint()
		if seen[fp] {
			t.Fatalf("duplicate point %q", fp)
		}
		seen[fp] = true
	}
	// Exhaustive: every combination is present.
	for _, a := range g.Axes[0].Values {
		for _, d := range g.Axes[1].Values {
			for _, s := range g.Axes[2].Values {
				fp := fmt.Sprintf("arch=%s,dap=%s,seed=%s", a, d, s)
				if !seen[fp] {
					t.Fatalf("missing point %q", fp)
				}
			}
		}
	}
	// Row-major order: last axis varies fastest.
	if points[0].Fingerprint() != "arch=A100,dap=1,seed=1" ||
		points[1].Fingerprint() != "arch=A100,dap=1,seed=2" ||
		points[3].Fingerprint() != "arch=A100,dap=2,seed=1" {
		t.Fatalf("unexpected expansion order: %q, %q, %q",
			points[0].Fingerprint(), points[1].Fingerprint(), points[3].Fingerprint())
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{Axes: []Axis{{Name: "", Values: []string{"x"}}}},
		{Axes: []Axis{{Name: "a", Values: nil}}},
		{Axes: []Axis{{Name: "a", Values: []string{"x", "x"}}}},
		{Axes: []Axis{{Name: "a", Values: []string{"x"}}, {Name: "a", Values: []string{"y"}}}},
	}
	for i, g := range bad {
		if _, err := g.Expand(); err == nil {
			t.Fatalf("grid %d must fail validation", i)
		}
	}
}

func TestPointGet(t *testing.T) {
	p := Point{Coords: []Coord{{"arch", "H100"}, {"dap", "8"}}}
	if p.Get("dap") != "8" || p.Get("arch") != "H100" || p.Get("missing") != "" {
		t.Fatalf("Get misbehaves: %+v", p)
	}
}

func TestSeedForDeterministicAndDecorrelated(t *testing.T) {
	a := SeedFor(1, "arch=H100,dap=8")
	b := SeedFor(1, "arch=H100,dap=8")
	c := SeedFor(1, "arch=H100,dap=4")
	d := SeedFor(2, "arch=H100,dap=8")
	if a != b {
		t.Fatal("same scenario must derive the same seed")
	}
	if a == c || a == d {
		t.Fatal("different scenarios/bases must derive different seeds")
	}
	if a < 0 {
		t.Fatal("seeds must be non-negative")
	}
}

// sweepTable runs the test grid through an engine and formats the canonical
// result table, mimicking what a real sweep runner emits.
func sweepTable(workers int, cache *Cache[string], calls *atomic.Int64) Table {
	points, _ := testGrid().Expand()
	cells := make([]Cell[Point], len(points))
	for i, p := range points {
		cells[i] = Cell[Point]{Key: p.Fingerprint(), Label: p.Fingerprint(), Config: p}
	}
	eng := Engine[Point, string]{Workers: workers, Cache: cache}
	results := eng.Run(cells, func(c Cell[Point]) string {
		calls.Add(1)
		// A deterministic "simulation": value derived from the scenario seed.
		return fmt.Sprintf("%d", SeedFor(7, c.Config.Fingerprint())%100000)
	})
	tab := Table{Header: []string{"arch", "dap", "seed", "value"}}
	for i, p := range points {
		tab.Append(p.Get("arch"), p.Get("dap"), p.Get("seed"), results[i])
	}
	return tab
}

func csvBytes(t *testing.T, tab Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelExecutionDeterministic(t *testing.T) {
	var calls atomic.Int64
	serial := csvBytes(t, sweepTable(1, nil, &calls))
	parallel := csvBytes(t, sweepTable(8, nil, &calls))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 must emit byte-identical CSV:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestMemoizationIdenticalToColdRun(t *testing.T) {
	var coldCalls atomic.Int64
	cold := csvBytes(t, sweepTable(4, nil, &coldCalls))

	cache := NewCache[string]()
	var warmCalls atomic.Int64
	first := csvBytes(t, sweepTable(4, cache, &warmCalls))
	afterFirst := warmCalls.Load()
	second := csvBytes(t, sweepTable(4, cache, &warmCalls))

	if !bytes.Equal(cold, first) || !bytes.Equal(first, second) {
		t.Fatal("memoized runs must emit byte-identical results to a cold run")
	}
	if afterFirst != int64(testGrid().Size()) {
		t.Fatalf("cold pass ran %d cells, want %d", afterFirst, testGrid().Size())
	}
	if warmCalls.Load() != afterFirst {
		t.Fatalf("warm pass recomputed cells: %d runs after warm, want %d", warmCalls.Load(), afterFirst)
	}
	if cache.Len() != testGrid().Size() {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), testGrid().Size())
	}
}

// TestCacheDeduplicatesRepeatedCells runs on a zero Cache, which must be
// an empty cache ready to use.
func TestCacheDeduplicatesRepeatedCells(t *testing.T) {
	var cache Cache[int]
	var calls atomic.Int64
	cells := []Cell[int]{
		{Key: "shared", Config: 1},
		{Key: "shared", Config: 1},
		{Key: "unique", Config: 2},
		{Key: "shared", Config: 1},
	}
	eng := Engine[int, int]{Workers: 4, Cache: &cache}
	res := eng.Run(cells, func(c Cell[int]) int {
		calls.Add(1)
		return c.Config * 10
	})
	if calls.Load() != 2 {
		t.Fatalf("repeated cells must run once: %d runs, want 2", calls.Load())
	}
	if res[0] != 10 || res[1] != 10 || res[2] != 20 || res[3] != 10 {
		t.Fatalf("wrong results: %v", res)
	}
}

func TestProgressStreamsEveryCell(t *testing.T) {
	points, _ := testGrid().Expand()
	cells := make([]Cell[Point], len(points))
	for i, p := range points {
		cells[i] = Cell[Point]{Key: p.Fingerprint(), Config: p}
	}
	var events int
	var lastDone int
	eng := Engine[Point, int]{
		Workers: 3,
		OnProgress: func(ev Progress) {
			events++
			if ev.Done != lastDone+1 || ev.Total != len(cells) {
				panic(fmt.Sprintf("progress out of order: %+v after done=%d", ev, lastDone))
			}
			lastDone = ev.Done
		},
	}
	eng.Run(cells, func(Cell[Point]) int { return 0 })
	if events != len(cells) {
		t.Fatalf("%d progress events, want %d", events, len(cells))
	}
}

func TestEmitters(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}}
	tab.Append("1", "x,y")
	tab.Append("2", `q"z`)
	var csvBuf, jsonBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	wantCSV := "a,b\n1,\"x,y\"\n2,\"q\"\"z\"\n"
	if csvBuf.String() != wantCSV {
		t.Fatalf("csv = %q, want %q", csvBuf.String(), wantCSV)
	}
	if !strings.Contains(jsonBuf.String(), `"b": "x,y"`) || !strings.HasPrefix(jsonBuf.String(), "[\n") {
		t.Fatalf("json = %q", jsonBuf.String())
	}
	// Mismatched row length is an error, not silent corruption.
	bad := Table{Header: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if bad.WriteCSV(&bytes.Buffer{}) == nil || bad.WriteJSON(&bytes.Buffer{}) == nil {
		t.Fatal("mismatched row must error")
	}
}

func TestEngineOnResultStreamsEveryCell(t *testing.T) {
	cache := NewCache[int]()
	cells := []Cell[int]{
		{Key: "a", Config: 1},
		{Key: "shared", Config: 2},
		{Key: "shared", Config: 2},
		{Key: "b", Config: 3},
	}
	got := map[int]int{}
	var cachedCount int
	eng := Engine[int, int]{
		Workers: 4,
		Cache:   cache,
		OnResult: func(i int, r int, cached bool) {
			if _, dup := got[i]; dup {
				t.Errorf("cell %d reported twice", i)
			}
			got[i] = r
			if cached {
				cachedCount++
			}
		},
	}
	res := eng.Run(cells, func(c Cell[int]) int { return c.Config * 10 })
	if len(got) != len(cells) {
		t.Fatalf("OnResult fired for %d cells, want %d", len(got), len(cells))
	}
	for i, r := range res {
		if got[i] != r {
			t.Fatalf("OnResult cell %d = %d, Run returned %d", i, got[i], r)
		}
	}
	if cachedCount != 1 {
		t.Fatalf("%d cached OnResult events, want 1 (the repeated key)", cachedCount)
	}
}

// Satellite regression cover: a row whose width disagrees with the header
// must fail both emitters with a precise diagnostic — wherever in the table
// it sits — and never emit a malformed document silently.
func TestTableRowLengthMismatchErrors(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}}
	tab.Append("1", "2")
	tab.Append("3") // too short, after a valid row
	tab.Append("4", "5")
	wantMsg := "row has 1 fields, header has 2"
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err == nil || !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("WriteCSV error = %v, want %q", tab.WriteCSV(&bytes.Buffer{}), wantMsg)
	}
	buf.Reset()
	if err := tab.WriteJSON(&buf); err == nil || !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("WriteJSON error = %v, want %q", tab.WriteJSON(&bytes.Buffer{}), wantMsg)
	}
	long := Table{Header: []string{"a"}, Rows: [][]string{{"1", "2", "3"}}}
	wantLong := "row has 3 fields, header has 1"
	if err := long.WriteCSV(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), wantLong) {
		t.Fatalf("WriteCSV long-row error = %v", err)
	}
	if err := long.WriteJSON(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), wantLong) {
		t.Fatalf("WriteJSON long-row error = %v", err)
	}
}

func TestParseList(t *testing.T) {
	got := ParseList(" 128, 256 ,,512 ")
	if len(got) != 3 || got[0] != "128" || got[1] != "256" || got[2] != "512" {
		t.Fatalf("ParseList = %v", got)
	}
	if ParseList("") != nil {
		t.Fatal("empty list must be nil")
	}
}
