package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Shared is the multi-writer sibling of Disk: several processes (fabric
// workers, a coordinator) share one result directory, each appending only to
// its own lease — segments named seg-<owner>-NNNNNNNN.jsonl, guarded by an
// exclusive flock on .lock-<owner> — while reading everyone's. No write path
// is ever contended across processes, so the single-writer invariant Disk
// enforces per directory holds per owner instead.
//
// Shared is built on the same core as Disk: the fingerprint-sharded lazy
// index (key → segment/offset/length, values decoded on demand through a
// bounded LRU), sidecar-indexed warm opens, the one segment writer, and
// Compact — which rewrites only this owner's segments and leaves every other
// owner's untouched.
//
// Foreign segments are tailed incrementally: Refresh (and every Get miss)
// indexes only the bytes other owners appended since the last look, and only
// complete lines — a torn tail another process is mid-writing is left for the
// next pass, never dropped. A foreign segment's sidecar (written when its
// owner sealed it) warm-starts the tail at the covered prefix. Because values
// are deterministic functions of their fingerprint key, concurrent writers
// racing on the same key are byte-equivalent and last-write-wins is safe.
// SegmentBytes works as on Disk.
type Shared[R any] struct {
	core[R]
	owner string

	// Reader state for everyone else's segments.
	rmu     sync.Mutex
	foreign map[string]*foreignSeg // path → tail progress
}

// foreignSeg tracks how far into another owner's segment we have indexed.
type foreignSeg struct {
	id       int32
	consumed int64 // bytes indexed (complete lines only)
}

// OpenShared opens (creating if needed) a shared store rooted at dir, writing
// as owner. The owner names this writer's lease: it must be unique among live
// processes sharing the directory (hostname-pid style) and path-safe
// (letters, digits, '.', '_', '-'). Opening indexes every segment in the
// directory — this owner's previous runs replay concurrently (sidecar-warm
// when possible, self-healing when not), other owners' tails start from their
// sidecars' covered prefix; fresh writes always start a new segment.
//
// A directory may be used by Disk and Shared stores at different times (both
// speak the same JSON-lines record format and Disk replays owner-named
// segments), but not concurrently: every owner holds dir/.lock shared until
// Close, so OpenDisk's exclusive lock is refused while any owner is live, and
// OpenShared is refused while a Disk holds the directory.
func OpenShared[R any](dir, owner string, opts ...Option) (*Shared[R], error) {
	if err := validOwner(owner); err != nil {
		return nil, err
	}
	s := &Shared[R]{owner: owner, foreign: map[string]*foreignSeg{}}
	foreign, err := s.open(dir, "seg-"+owner+"-", false, opts,
		dirLock{".lock", syscall.LOCK_SH, dir + " is held by a single-writer Disk store"},
		dirLock{".lock-" + owner, syscall.LOCK_EX, fmt.Sprintf(
			"owner %q already writes to %s (owners must be unique per live process)", owner, dir)})
	if err != nil {
		return nil, err
	}
	// Foreign (another owner's, or a plain Disk segment): tail it.
	s.rmu.Lock()
	defer s.rmu.Unlock()
	for _, path := range foreign {
		if _, err := s.tailLocked(path); err != nil {
			s.unlock()
			return nil, err
		}
	}
	return s, nil
}

func validOwner(owner string) error {
	if owner == "" {
		return fmt.Errorf("store: empty owner")
	}
	for _, r := range owner {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("store: owner %q: only letters, digits, '.', '_' and '-' are allowed", owner)
		}
	}
	return nil
}

// segSeqOf parses prefix + zero-padded digits + ".jsonl", reporting the
// sequence number. Anything else — another owner's lease, foreign droppings —
// reports false.
func segSeqOf(base, prefix string) (int, bool) {
	num, ok := strings.CutPrefix(base, prefix)
	if !ok {
		return 0, false
	}
	num, ok = strings.CutSuffix(num, ".jsonl")
	if !ok || num == "" {
		return 0, false
	}
	for _, r := range num {
		if r < '0' || r > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0, false
	}
	return n, true
}

// tailLocked indexes a foreign segment from its consumed offset, taking the
// segment owner's sidecar as a warm start on first contact and then scanning
// only complete (newline-terminated) lines; a partial tail stays unconsumed
// for the next pass. Reports how many records were indexed. Callers hold
// s.rmu.
func (s *Shared[R]) tailLocked(path string) (int, error) {
	fs := s.foreign[path]
	applied := 0
	if fs == nil {
		fs = &foreignSeg{id: s.tab.add(path)}
		s.foreign[path] = fs
		if st, err := os.Stat(path); err == nil && st.Size() <= maxSegmentOff {
			if entries, dropped, covered, ok := loadSidecar(path, st.Size()); ok {
				for _, e := range entries {
					s.idx.setIfNewer(e.Key, ref{off: e.Off, llen: e.Len, seg: fs.id}, nil)
				}
				s.dropped.Add(int64(dropped))
				fs.consumed = covered
				applied = len(entries)
				s.met.Load().sidecarLoad()
			}
		}
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return applied, nil // raced a cleanup; forget it
		}
		return applied, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(fs.consumed, 0); err != nil {
		return applied, fmt.Errorf("store: %w", err)
	}
	res, err := scanSegment(f, fs.consumed)
	if err != nil {
		return applied, fmt.Errorf("store: reading %s: %w", path, err)
	}
	for _, e := range res.entries {
		s.idx.setIfNewer(e.Key, ref{off: e.Off, llen: e.Len, seg: fs.id}, nil)
	}
	s.dropped.Add(int64(res.dropped))
	s.replayed.Add(int64(res.parsed))
	fs.consumed += res.consumed
	return applied + len(res.entries), nil
}

// Refresh scans the directory for bytes other owners appended since the last
// look and indexes them. It reports how many records were applied. Get calls
// it automatically on a miss; call it directly to pre-warm before a batch.
func (s *Shared[R]) Refresh() (int, error) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.refreshLocked()
}

func (s *Shared[R]) refreshLocked() (int, error) {
	segs, err := filepath.Glob(filepath.Join(s.dir, "seg-*.jsonl"))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs)
	total := 0
	for _, path := range segs {
		// Skip only segments that parse as our own lease — the same rule
		// OpenShared partitions by. A bare prefix check would also skip a
		// dash-prefixed sibling's segments (owner "w1" vs "w1-2"), leaving
		// that owner's records permanently untailed.
		if _, ok := segSeqOf(filepath.Base(path), s.w.prefix); ok {
			continue // our lease: indexed at write time
		}
		n, err := s.tailLocked(path)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Get returns the stored value for key. A miss triggers one incremental
// Refresh — the "any worker's finished cell is every worker's memo hit"
// path — before giving up.
func (s *Shared[R]) Get(key string) (R, bool) {
	mt := s.met.Load()
	t0 := mt.start()
	v, ok := s.get(key)
	if !ok {
		s.Refresh() // best-effort: a read error just means a miss
		v, ok = s.get(key)
	}
	mt.lookup(t0, ok)
	mt.records(s.Len())
	return v, ok
}

// Owner returns this writer's lease.
func (s *Shared[R]) Owner() string { return s.owner }
