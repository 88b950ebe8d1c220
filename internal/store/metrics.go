package store

import (
	"time"

	"repro/internal/obs"
)

// Metrics collects a store's observability series: lookup/append latency
// histograms, hit/miss counters, and index-size/segment gauges. Attach one
// with WithMetrics when opening a Disk or Shared store, or with SetMetrics
// on a Mem; a nil *Metrics keeps the store completely uninstrumented (no
// clock reads, no atomic writes).
//
// Build one by hand for tests, or with NewMetrics to register the standard
// scalefold_store_* series in an obs.Registry.
type Metrics struct {
	Lookup   *obs.Histogram // Get latency, seconds (lock wait included)
	Append   *obs.Histogram // Put latency, seconds (encode + write included)
	Hits     *obs.Counter   // lookups that found a value
	Misses   *obs.Counter   // lookups that did not
	Records  *obs.Gauge     // keys in the in-memory index
	Segments *obs.Gauge     // segment files opened by this writer (0 for Mem)

	// Lazy-store series (nil on Mem; NewMetrics fills them all).
	Contended      *obs.Counter // index-shard lock acquisitions that had to wait
	CacheHits      *obs.Counter // Gets served from the decoded-value LRU
	CacheMisses    *obs.Counter // Gets that had to read and decode from disk
	SidecarLoads   *obs.Counter // segments opened warm from a valid sidecar
	SidecarWrites  *obs.Counter // sidecars written (seal, self-heal, compaction)
	Compactions    *obs.Counter // completed Compact calls
	DecodeFailures *obs.Counter // Get-time record reads that failed to decode
}

// NewMetrics registers the standard store series in r, labeled store=name,
// and returns them bundled for WithMetrics or Mem.SetMetrics. Returns nil
// (uninstrumented) on a nil Registry.
func NewMetrics(r *obs.Registry, name string) *Metrics {
	if r == nil {
		return nil
	}
	lbl := obs.Label{Key: "store", Value: name}
	return &Metrics{
		Lookup:   r.Histogram("scalefold_store_lookup_seconds", "Store Get latency in seconds.", nil, lbl),
		Append:   r.Histogram("scalefold_store_append_seconds", "Store Put latency in seconds.", nil, lbl),
		Hits:     r.Counter("scalefold_store_hits_total", "Store lookups that found a value.", lbl),
		Misses:   r.Counter("scalefold_store_misses_total", "Store lookups that missed.", lbl),
		Records:  r.Gauge("scalefold_store_records", "Keys in the store index.", lbl),
		Segments: r.Gauge("scalefold_store_segments", "Segment files opened by this writer.", lbl),

		Contended:      r.Counter("scalefold_store_shard_contention_total", "Index-shard lock acquisitions that had to wait.", lbl),
		CacheHits:      r.Counter("scalefold_store_cache_hits_total", "Gets served from the decoded-value cache.", lbl),
		CacheMisses:    r.Counter("scalefold_store_cache_misses_total", "Gets that read and decoded record bytes from disk.", lbl),
		SidecarLoads:   r.Counter("scalefold_store_sidecar_loads_total", "Segments opened warm from a valid sidecar index.", lbl),
		SidecarWrites:  r.Counter("scalefold_store_sidecar_writes_total", "Sidecar indexes written (seal, self-heal, compaction).", lbl),
		Compactions:    r.Counter("scalefold_store_compactions_total", "Completed store compactions.", lbl),
		DecodeFailures: r.Counter("scalefold_store_decode_failures_total", "Get-time record reads that failed to decode.", lbl),
	}
}

// start returns the operation start time, or the zero time when
// uninstrumented — the nil check that keeps time.Now() off bare runs.
func (m *Metrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// lookup settles one Get: latency since t0 plus the hit/miss outcome.
func (m *Metrics) lookup(t0 time.Time, hit bool) {
	if m == nil {
		return
	}
	m.Lookup.ObserveSince(t0)
	if hit {
		m.Hits.Inc()
	} else {
		m.Misses.Inc()
	}
}

// appended settles one Put: latency since t0 and the new index size.
func (m *Metrics) appended(t0 time.Time, records int) {
	if m == nil {
		return
	}
	m.Append.ObserveSince(t0)
	m.Records.Set(int64(records))
}

// records refreshes the index-size gauge (used by refresh paths that grow
// the index without a Put).
func (m *Metrics) records(n int) {
	if m == nil {
		return
	}
	m.Records.Set(int64(n))
}

// rotated counts one new segment file.
func (m *Metrics) rotated() {
	if m == nil {
		return
	}
	m.Segments.Add(1)
}

// contended counts one shard-lock acquisition that found the lock held.
func (m *Metrics) contended() {
	if m == nil || m.Contended == nil {
		return
	}
	m.Contended.Inc()
}

// cacheHit counts one Get served from the decoded-value LRU.
func (m *Metrics) cacheHit() {
	if m == nil || m.CacheHits == nil {
		return
	}
	m.CacheHits.Inc()
}

// cacheMiss counts one Get that had to read record bytes from disk.
func (m *Metrics) cacheMiss() {
	if m == nil || m.CacheMisses == nil {
		return
	}
	m.CacheMisses.Inc()
}

// sidecarLoad counts one segment opened warm from its sidecar.
func (m *Metrics) sidecarLoad() {
	if m == nil || m.SidecarLoads == nil {
		return
	}
	m.SidecarLoads.Inc()
}

// sidecarRebuild counts one sidecar written.
func (m *Metrics) sidecarRebuild() {
	if m == nil || m.SidecarWrites == nil {
		return
	}
	m.SidecarWrites.Inc()
}

// compacted counts one completed compaction.
func (m *Metrics) compacted() {
	if m == nil || m.Compactions == nil {
		return
	}
	m.Compactions.Inc()
}

// decodeError counts one Get whose on-disk record failed to decode.
func (m *Metrics) decodeError() {
	if m == nil || m.DecodeFailures == nil {
		return
	}
	m.DecodeFailures.Inc()
}
