package store

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// storeCounts is one store's value of every scalefold_store_* series; a
// latency histogram contributes its observation count.
type storeCounts struct {
	lookups, appends, hits, misses, records, segments        int64
	contended, cacheHits, cacheMisses                        int64
	sidecarLoads, sidecarWrites, compactions, decodeFailures int64
}

func (c storeCounts) series(name string) map[string]int64 {
	lbl := `{store="` + name + `"}`
	return map[string]int64{
		"scalefold_store_lookup_seconds_count" + lbl:   c.lookups,
		"scalefold_store_append_seconds_count" + lbl:   c.appends,
		"scalefold_store_hits_total" + lbl:             c.hits,
		"scalefold_store_misses_total" + lbl:           c.misses,
		"scalefold_store_records" + lbl:                c.records,
		"scalefold_store_segments" + lbl:               c.segments,
		"scalefold_store_shard_contention_total" + lbl: c.contended,
		"scalefold_store_cache_hits_total" + lbl:       c.cacheHits,
		"scalefold_store_cache_misses_total" + lbl:     c.cacheMisses,
		"scalefold_store_sidecar_loads_total" + lbl:    c.sidecarLoads,
		"scalefold_store_sidecar_writes_total" + lbl:   c.sidecarWrites,
		"scalefold_store_compactions_total" + lbl:      c.compactions,
		"scalefold_store_decode_failures_total" + lbl:  c.decodeFailures,
	}
}

// TestStoreSeriesPinned drives a Disk store, a pair of Shared stores and a
// Mem store through a known sequence and pins the value of every store
// series they feed: puts across a rotation, hits served from the decoded-
// value cache and read from disk, misses, a compaction, a warm reopen that
// loads its sidecar, a record corrupted on disk so it fails to decode, and
// a shard lock held by the test so that a Get counts as contended.
func TestStoreSeriesPinned(t *testing.T) {
	reg := obs.NewRegistry()
	k0, k1, k2, absent := fpKey(0), fpKey(1), fpKey(2), fpKey(99)
	put := func(s interface{ Put(string, payload) error }, key string, i int) {
		t.Helper()
		if err := s.Put(key, pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(s interface{ Get(string) (payload, bool) }, key string, want bool) {
		t.Helper()
		if _, ok := s.Get(key); ok != want {
			t.Errorf("Get(%s) found=%v, want %v", key, ok, want)
		}
	}
	contention := func(name string) *obs.Counter {
		return reg.Counter("scalefold_store_shard_contention_total", "", obs.Label{Key: "store", Value: name})
	}

	// Disk: every Put rotates, the compaction folds the three segments into
	// one, and the warm reopen serves the corrupted record's key from it.
	diskDir := t.TempDir()
	d, err := OpenDisk[payload](diskDir, WithMetrics(NewMetrics(reg, "disk")))
	if err != nil {
		t.Fatal(err)
	}
	d.SegmentBytes = 1
	put(d, k0, 0)
	put(d, k1, 1)
	put(d, k2, 2)
	get(d, k2, true) // admitted to the cache by its Put
	get(d, absent, false)
	d.SegmentBytes = DefaultSegmentBytes // compact into one segment
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, diskDir, k1)
	d, err = OpenDisk[payload](diskDir, WithMetrics(NewMetrics(reg, "disk")))
	if err != nil {
		t.Fatal(err)
	}
	get(d, k0, true)  // read from disk: the reopened cache is empty
	get(d, k1, false) // decode failure
	holdShard(t, d.idx, k0, contention("disk"), func() { get(d, k0, true) })
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Shared: b tails a's segments at open (one sealed with its sidecar)
	// and on a Get miss; a compacts, then reopens warm onto the corrupted
	// record, which a Shared Get decodes twice (before and after its
	// refresh).
	sharedDir := t.TempDir()
	a, err := OpenShared[payload](sharedDir, "a", WithMetrics(NewMetrics(reg, "shared-a")))
	if err != nil {
		t.Fatal(err)
	}
	a.SegmentBytes = 1
	put(a, k0, 0)
	put(a, k1, 1)
	b, err := OpenShared[payload](sharedDir, "b", WithMetrics(NewMetrics(reg, "shared-b")))
	if err != nil {
		t.Fatal(err)
	}
	get(b, k1, true) // read from a's segment
	get(b, k1, true) // from b's cache
	get(b, absent, false)
	put(a, k2, 2)
	get(b, k2, true) // found by the miss's refresh
	get(a, k0, true) // from a's cache
	get(a, absent, false)
	holdShard(t, a.idx, k0, contention("shared-a"), func() { get(a, k0, true) })
	a.SegmentBytes = DefaultSegmentBytes
	if _, err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, sharedDir, k1)
	a, err = OpenShared[payload](sharedDir, "a", WithMetrics(NewMetrics(reg, "shared-a")))
	if err != nil {
		t.Fatal(err)
	}
	get(a, k1, false)
	for _, s := range []*Shared[payload]{a, b} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	mem := NewMem[payload](WithMetrics(NewMetrics(reg, "mem")))
	put(mem, k0, 0)
	put(mem, k1, 1)
	get(mem, k0, true)
	get(mem, absent, false)

	want := map[string]int64{}
	for name, c := range map[string]storeCounts{
		"disk": {lookups: 5, appends: 3, hits: 3, misses: 2, records: 3, segments: 4,
			contended: 1, cacheHits: 2, cacheMisses: 2,
			sidecarLoads: 1, sidecarWrites: 4, compactions: 1, decodeFailures: 1},
		"shared-a": {lookups: 4, appends: 3, hits: 2, misses: 2, records: 3, segments: 4,
			contended: 1, cacheHits: 2, cacheMisses: 2,
			sidecarLoads: 1, sidecarWrites: 4, compactions: 1, decodeFailures: 2},
		"shared-b": {lookups: 4, hits: 3, misses: 1, records: 3,
			cacheHits: 1, cacheMisses: 2, sidecarLoads: 1},
		"mem": {lookups: 2, appends: 2, hits: 1, misses: 1, records: 2},
	} {
		for k, v := range c.series(name) {
			want[k] = v
		}
	}
	if got := scrapeStoreSeries(t, reg); !reflect.DeepEqual(got, want) {
		for k, v := range want {
			if g, ok := got[k]; !ok || g != v {
				t.Errorf("%s = %d (present %v), want %d", k, g, ok, v)
			}
		}
		for k, g := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("unexpected series %s = %d", k, g)
			}
		}
	}
}

// holdShard holds the index shard lock of key while get runs on another
// goroutine, and releases it once contended shows that get waited for it.
func holdShard[R any](t *testing.T, ix *index[R], key string, contended *obs.Counter, get func()) {
	t.Helper()
	sh := ix.shard(hashKey(key))
	before := contended.Value()
	sh.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		get()
	}()
	for deadline := time.Now().Add(10 * time.Second); contended.Value() == before; {
		if time.Now().After(deadline) {
			sh.mu.Unlock()
			t.Fatal("a Get blocked on a held shard lock never counted as contended")
		}
		time.Sleep(time.Millisecond)
	}
	sh.mu.Unlock()
	<-done
}

// corruptRecord overwrites the first byte of key's record line, in every
// segment of dir holding it, so the record no longer decodes. The segment
// keeps its size, so its sidecar still loads.
func corruptRecord(t *testing.T, dir, key string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte(`{"k":"` + key + `"`)
		for off := 0; off < len(raw); {
			if bytes.HasPrefix(raw[off:], prefix) {
				raw[off] = 'x'
				n++
			}
			nl := bytes.IndexByte(raw[off:], '\n')
			if nl < 0 {
				break
			}
			off += nl + 1
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n == 0 {
		t.Fatalf("no record of %s in %s", key, dir)
	}
}

// scrapeStoreSeries renders reg and returns each scalefold_store_* series by
// its exposition name and labels, skipping histogram buckets and sums.
func scrapeStoreSeries(t *testing.T, reg *obs.Registry) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "scalefold_store_") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		if strings.Contains(name, "_bucket{") || strings.Contains(name, "_sum{") {
			continue
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		got[name] = v
	}
	return got
}
