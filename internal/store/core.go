package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
)

// core is what Disk and Shared share: the directory locks, the
// fingerprint-sharded lazy index over a segment table, the one segment
// writer, and the open, read, write and compaction paths. The two differ
// only in which locks they take, which segments their writer owns, and
// (for Shared) tailing the segments it does not own.
type core[R any] struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	// Set it before the first Put; it is read under the store lock.
	SegmentBytes int64

	dir   string
	locks []*os.File // flock-held lock files, released by Close
	cfg   config
	met   Metrics

	idx *index[R]
	tab *segTable

	// wmu guards the writer and closed. Reads never take it — they go
	// through the sharded index and per-segment read handles.
	wmu    sync.Mutex
	w      segWriter
	closed bool

	dropped  atomic.Int64
	replayed atomic.Int64
}

// dirLock is one flock an open takes on a file in the store directory.
type dirLock struct {
	name string // lock file name
	how  int    // syscall.LOCK_EX or syscall.LOCK_SH
	busy string // the refusal when a conflicting holder is live
}

// open creates dir if needed, takes the locks and indexes the segments the
// writer owns — those named prefix+sequence (numbering resumes after the
// newest), or every segment when ownAll. The rest, in name order, are
// returned for the caller to tail. Owned ids are registered in name order
// so the index's (segment, offset) versioning matches write order, then
// replayed concurrently: last-write-wins is resolved per key by that
// versioning, not by replay scheduling.
func (c *core[R]) open(dir, prefix string, ownAll bool, opts []Option, locks ...dirLock) (foreign []string, err error) {
	c.SegmentBytes, c.dir, c.cfg, c.tab = DefaultSegmentBytes, dir, buildConfig(opts), &segTable{}
	c.met = c.cfg.metrics
	c.idx = newIndex[R](c.cfg.shards, c.cfg.cacheEntries, c.cfg.legacy, &c.met)
	c.w = segWriter{dir: dir, prefix: prefix, live: map[int32]string{}, tab: c.tab, met: &c.met}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			c.unlock()
		}
	}()
	for _, l := range locks {
		f, err := os.OpenFile(filepath.Join(dir, l.name), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		c.locks = append(c.locks, f)
		if err := syscall.Flock(int(f.Fd()), l.how|syscall.LOCK_NB); err != nil {
			return nil, fmt.Errorf("store: %s: %w", l.busy, err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs) // zero-padded names sort in write order
	var own []string
	var ids []int32
	for _, path := range segs {
		// New writes always start a fresh segment: an owned tail may end
		// in a torn line. Other namespaces don't advance our numbering.
		n, mine := segSeqOf(filepath.Base(path), prefix)
		if !mine && !ownAll {
			foreign = append(foreign, path)
			continue
		}
		id := c.tab.add(path)
		c.w.live[id] = path
		c.w.seq = max(c.w.seq, n)
		own, ids = append(own, path), append(ids, id)
	}
	if err := c.replayAll(own, ids); err != nil {
		return nil, err
	}
	return foreign, nil
}

// unlock releases every lock file.
func (c *core[R]) unlock() error {
	var err error
	for _, f := range c.locks {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	c.locks = nil
	return err
}

// replayAll loads segments into the index, a bounded worker per segment.
func (c *core[R]) replayAll(paths []string, ids []int32) error {
	sem := make(chan struct{}, max(1, min(runtime.GOMAXPROCS(0), len(paths))))
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for i := range paths {
		wg.Add(1)
		sem <- struct{}{}
		go func(path string, id int32) {
			defer func() { <-sem; wg.Done() }()
			if err := c.replayOne(path, id); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(paths[i], ids[i])
	}
	wg.Wait()
	return firstErr
}

// replayOne indexes one segment: sidecar entries for the covered prefix, a
// scan for whatever the sidecar does not cover (a torn final line counts as
// dropped), and a rewritten sidecar so the next open takes the fast path.
func (c *core[R]) replayOne(path string, id int32) error {
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := st.Size()
	if size > maxSegmentOff {
		return fmt.Errorf("store: %s: %w", path, errSegmentTooLarge)
	}
	entries, dropped, covered, warm := loadSidecar(path, size)
	if warm {
		c.met.SidecarLoads.Inc()
	} else {
		entries, dropped, covered = nil, 0, 0
	}
	if covered < size {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := f.Seek(covered, 0); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		res, err := scanSegment(f, covered)
		f.Close()
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
		entries = append(entries, res.entries...)
		dropped += res.dropped
		covered += res.consumed
		if res.torn {
			c.dropped.Add(1) // a crash's partial final line
		}
		c.replayed.Add(int64(res.parsed))
		// The scan did work a sidecar would have avoided: seal what we
		// learned so the next open of this (now static) segment is warm.
		if res.parsed > 0 && writeSidecar(path, covered, dropped, entries) == nil {
			c.met.SidecarWrites.Inc()
		}
	}
	for _, e := range entries {
		c.idx.setIfNewer(e.Key, ref{off: e.Off, llen: e.Len, seg: id}, nil)
	}
	c.dropped.Add(int64(dropped))
	return nil
}

// Get returns the stored value for key, if any: an index hit serves from
// the decode cache or reads exactly one record's bytes off disk.
func (c *core[R]) Get(key string) (R, bool) {
	t0 := c.met.start()
	v, ok := c.get(key)
	c.met.lookup(t0, ok)
	return v, ok
}

// get is the read path: index → LRU → one pread. A ref invalidated by a
// concurrent compaction retries once through the index.
func (c *core[R]) get(key string) (R, bool) {
	var zero R
	for attempt := 0; attempt < 2; attempt++ {
		v, rf, cached, ok := c.idx.cachedOrRef(key)
		if !ok {
			return zero, false
		}
		if cached {
			return v, true
		}
		got, err := fetchRecord[R](c.tab, rf, key)
		if err == nil {
			c.idx.admit(key, rf, got)
			return got, true
		}
		if errors.Is(err, errStaleRef) {
			continue // compaction moved the record; re-resolve
		}
		c.met.DecodeFailures.Inc()
		return zero, false
	}
	return zero, false
}

// Put appends the record through the writer and indexes it. A settled Put
// is on the page cache even if the process dies; Sync forces it to the
// platter.
func (c *core[R]) Put(key string, v R) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	line, err := encodeRecord(key, v)
	if err != nil {
		return err
	}
	t0 := c.met.start()
	c.wmu.Lock()
	if c.closed {
		c.wmu.Unlock()
		return fmt.Errorf("store: closed")
	}
	rf, err := c.w.append(key, line, c.SegmentBytes)
	if err == nil {
		// Index before releasing wmu: Compact snapshots the index under wmu
		// and deletes the superseded segment files, so a Put that has
		// written its bytes must be visible to that snapshot or the
		// acknowledged write is lost with its segment. setIfNewer only
		// takes a per-shard lock (which never waits on wmu), so this cannot
		// deadlock.
		c.idx.setIfNewer(key, rf, &v)
	}
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	c.met.appended(t0, c.Len())
	return nil
}

// Keys returns every indexed key, sorted. O(n log n) — prefer Len for
// stats-style callers.
func (c *core[R]) Keys() []string { return c.idx.keys() }

// Len returns the number of indexed keys. Allocation-free: a single atomic
// load off the sharded index.
func (c *core[R]) Len() int { return int(c.idx.count.Load()) }

// Legacy returns how many indexed keys the configured WithLegacyKey
// predicate classifies as legacy (pre-current-fingerprint generations).
// Counted incrementally during replay and Put — never by rescanning keys —
// and reduced by Compact, which drops legacy records. Zero when the store
// was opened without a predicate.
func (c *core[R]) Legacy() int { return int(c.idx.legacy.Load()) }

// Dropped returns how many unparsable log lines were skipped — normally
// zero; nonzero after a crash tore a final line, or if a segment was
// corrupted out-of-band.
func (c *core[R]) Dropped() int { return int(c.dropped.Load()) }

// Replayed returns how many record lines were JSON-parsed to build the
// index. A warm open — every segment carrying a valid sidecar — reports 0:
// the index was built from offsets alone.
func (c *core[R]) Replayed() int { return int(c.replayed.Load()) }

// Dir returns the directory backing the store.
func (c *core[R]) Dir() string { return c.dir }

// Sync forces the active segment to stable storage.
func (c *core[R]) Sync() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.sync()
}

// Close syncs and seals the active segment (sidecar included, so the next
// open is warm), closes every read handle and releases the directory
// locks. The index stays readable; Put fails after Close.
func (c *core[R]) Close() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.w.sync()
	if serr := c.w.seal(); err == nil {
		err = serr
	}
	c.tab.closeAll()
	if lerr := c.unlock(); err == nil && lerr != nil {
		err = fmt.Errorf("store: %w", lerr)
	}
	return err
}
