package store

import (
	"time"

	"repro/internal/obs"
)

// Metrics collects a store's observability series: lookup/append latency
// histograms, hit/miss counters, and index-size/segment gauges. Attach one
// with WithMetrics when making a store; a store holds its Metrics by value,
// and the zero Metrics keeps it uninstrumented (no clock reads, and every
// write is a nil-series no-op).
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
// and returns them bundled for WithMetrics. Returns the zero (uninstrumented)
// Metrics on a nil Registry.
func NewMetrics(r *obs.Registry, name string) Metrics {
	lbl := obs.Label{Key: "store", Value: name}
	return Metrics{
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

// start returns the operation start time, or the zero time when the store
// is uninstrumented — the check that keeps time.Now() off bare runs.
func (m *Metrics) start() time.Time {
	if m.Lookup == nil && m.Append == nil {
		return time.Time{}
	}
	return time.Now()
}

// lookup settles one Get: latency since t0 plus the hit/miss outcome.
func (m *Metrics) lookup(t0 time.Time, hit bool) {
	m.Lookup.ObserveSince(t0)
	if hit {
		m.Hits.Inc()
	} else {
		m.Misses.Inc()
	}
}

// appended settles one Put: latency since t0 and the new index size.
func (m *Metrics) appended(t0 time.Time, records int) {
	m.Append.ObserveSince(t0)
	m.Records.Set(int64(records))
}
