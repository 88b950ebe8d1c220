package store

import (
	"fmt"
	"maps"
	"os"
	"sort"
)

// CompactStats reports what a Compact call did, JSON-ready for the CLI and
// the coordinator admin endpoint.
type CompactStats struct {
	Keys           int   `json:"keys"`            // live keys indexed after compaction
	Rewritten      int   `json:"rewritten"`       // records copied into fresh segments
	DroppedLegacy  int   `json:"dropped_legacy"`  // legacy-generation records shed
	SegmentsBefore int   `json:"segments_before"` // this writer's segments going in
	SegmentsAfter  int   `json:"segments_after"`  // fresh segments written
	BytesBefore    int64 `json:"bytes_before"`    // their sizes going in
	BytesAfter     int64 `json:"bytes_after"`     // fresh segment bytes
}

// Compact rewrites the store down to its live records: for every key, the
// newest record line is copied byte-identically into fresh segments (with
// sidecars), overwritten duplicates and legacy-generation records (per
// WithLegacyKey) are shed, the index is rebuilt over the new refs, and the
// old segment files are deleted. Runs under the writer lock — concurrent
// Puts block for the duration, concurrent Gets stay live (a Get racing the
// switch-over retries through the rebuilt index).
//
// Crash-safe at every step: fresh segments are written and fsynced under
// higher sequence numbers before any old file is deleted, and replay's
// last-write-wins ordering means a directory holding both generations
// reopens to the same mapping.
func (c *core[R]) Compact() (CompactStats, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.compactLocked()
}

// Compact rewrites this owner's segments down to their live records —
// records whose newest version lives in another owner's segment are left
// exactly where they are, and foreign segment files are never touched. Safe
// to run on one member of a live fleet: other owners keep reading the old
// segments they have open and pick up the compacted ones on their next
// refresh (byte-identical records, so either view agrees).
func (s *Shared[R]) Compact() (CompactStats, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// Freeze foreign tailing too: the index rebuild must not lose entries a
	// concurrent Refresh would add between snapshot and commit. Get misses
	// block on the refresh lock for the duration; indexed Gets stay live.
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.compactLocked()
}

// compactLocked is the compaction body: it rewrites the segments the writer
// owns through the writer itself, fsyncing each, and preserves index entries
// pointing anywhere else. Callers hold wmu, so no Put races the rebuild.
func (c *core[R]) compactLocked() (CompactStats, error) {
	if c.closed {
		return CompactStats{}, fmt.Errorf("store: closed")
	}
	if err := c.w.seal(); err != nil {
		return CompactStats{}, err
	}
	old := c.w.live
	st := CompactStats{SegmentsBefore: len(old)}
	for _, p := range old {
		if fi, err := os.Stat(p); err == nil {
			st.BytesBefore += fi.Size()
		}
	}
	// Snapshot: keys to rewrite (newest version in one of our segments,
	// not legacy) in original write order, plus keys to carry unchanged.
	type entry struct {
		key string
		r   ref
	}
	var rewrite []entry
	kept := map[string]ref{}
	c.idx.each(func(k string, r ref) bool {
		if _, mine := old[r.seg]; !mine {
			kept[k] = r
		} else if c.cfg.legacy != nil && c.cfg.legacy(k) {
			st.DroppedLegacy++
		} else {
			rewrite = append(rewrite, entry{k, r})
		}
		return true
	})
	sort.Slice(rewrite, func(i, j int) bool {
		if rewrite[i].r.seg != rewrite[j].r.seg {
			return rewrite[i].r.seg < rewrite[j].r.seg
		}
		return rewrite[i].r.off < rewrite[j].r.off
	})
	c.w.live, c.w.durable = map[int32]string{}, true
	defer func() { c.w.durable = false }()
	err := func() error {
		for _, e := range rewrite {
			line, err := rawLine(c.tab, e.r)
			if err != nil {
				return err
			}
			nr, err := c.w.append(e.key, line, c.SegmentBytes)
			if err != nil {
				return err
			}
			kept[e.key] = nr
			st.BytesAfter += int64(len(line))
		}
		return c.w.seal()
	}()
	if err != nil {
		// The old segments still hold every record, so the writer keeps
		// owning them; what was rewritten so far is duplicates.
		maps.Copy(c.w.live, old)
		return st, err
	}
	st.Keys, st.Rewritten, st.SegmentsAfter = len(kept), len(rewrite), len(c.w.live)
	// Commit: the index switches to the new refs, then the old files go. A
	// Get that resolved an old ref just before the switch either still reads
	// the old bytes (identical record) or gets a stale-ref error and
	// re-resolves.
	c.idx.rebuild(kept)
	for id, p := range old {
		c.tab.drop(id)
		os.Remove(p)
		os.Remove(sidecarPath(p))
	}
	c.met.Compactions.Inc()
	c.met.Records.Set(int64(len(kept)))
	return st, nil
}

// rawLine reads one record's exact on-disk bytes, newline restored.
func rawLine(tab *segTable, rf ref) ([]byte, error) {
	sf := tab.get(rf.seg)
	if sf == nil {
		return nil, errStaleRef
	}
	buf := make([]byte, int(rf.llen)+1)
	if err := sf.readAt(buf[:rf.llen], int64(rf.off)); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	buf[rf.llen] = '\n'
	return buf, nil
}
