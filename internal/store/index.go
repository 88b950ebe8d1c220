package store

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ref locates one record's bytes on disk: the segment (an id into the
// store's segment table, assigned in replay/rotation order so (seg, off)
// orders writes), the byte offset of the record line within that segment,
// and the line length excluding the trailing newline. 12 bytes; segments
// are rotated long before the uint32 offset space runs out.
type ref struct {
	off  uint32
	llen uint32
	seg  int32
}

// newer reports whether r was written after (or at the same position as) old
// — the last-write-wins rule that makes concurrent replay order-independent.
func (r ref) newer(old ref) bool {
	return r.seg > old.seg || (r.seg == old.seg && r.off >= old.off)
}

// islot is one open-addressing slot: a compact inline key plus its ref.
// 32 bytes, the "O(records × ~32B)" the lazy index promises.
type islot struct {
	key ikey
	ref ref
}

// indexShard is 1/Nth of the key space: an open-addressing table (linear
// probing, grown 1.5× at 85% load — the non-power-of-two sizing keeps the
// average table ~70% full instead of oscillating around 50%) for
// inline-encodable keys, an overflow map for the rest, and a small LRU of
// decoded values fronting the disk.
type indexShard[R any] struct {
	mu       sync.Mutex
	slots    []islot // grown 1.5×, probed modulo len (NOT a power of two); nil until first insert
	used     int
	overflow map[string]ref // nil until a key exceeds the inline form
	lru      *lruCache[R]
}

const indexShardMinSlots = 16

// index is the sharded lazy index shared by Disk and Shared: key → ref, with
// allocation-free Len, per-shard locking, and a bounded decode cache.
type index[R any] struct {
	shards   []indexShard[R]
	shift    uint // hash >> shift picks the shard
	count    atomic.Int64
	legacy   atomic.Int64
	isLegacy func(string) bool // nil = no legacy accounting
	met      *Metrics          // the store's
}

// newIndex builds an index with the given shard count (rounded up to a power
// of two) and a total decoded-value cache capacity spread across shards.
func newIndex[R any](shards, cacheEntries int, isLegacy func(string) bool, met *Metrics) *index[R] {
	n := 1
	for n < shards {
		n <<= 1
	}
	ix := &index[R]{shards: make([]indexShard[R], n), shift: 64, isLegacy: isLegacy, met: met}
	for b := n; b > 1; b >>= 1 {
		ix.shift--
	}
	perShard := cacheEntries / n
	if cacheEntries > 0 && perShard == 0 {
		perShard = 1
	}
	if perShard > 0 {
		for i := range ix.shards {
			ix.shards[i].lru = newLRU[R](perShard)
		}
	}
	return ix
}

func (ix *index[R]) shard(h uint64) *indexShard[R] {
	return &ix.shards[h>>ix.shift]
}

// lock takes the shard lock, counting the acquisitions that had to wait —
// the shard-contention series that shows when a deployment needs more
// shards (or is thrashing one hot key).
func (ix *index[R]) lock(sh *indexShard[R]) {
	if sh.mu.TryLock() {
		return
	}
	ix.met.Contended.Inc()
	sh.mu.Lock()
}

// lookup returns the ref stored for key, if any.
func (ix *index[R]) lookup(key string) (ref, bool) {
	h := hashKey(key)
	sh := ix.shard(h)
	ix.lock(sh)
	r, ok := sh.find(key, h)
	sh.mu.Unlock()
	return r, ok
}

// cachedOrRef is the Get fast path in one lock acquisition: a decoded value
// from the LRU (hit), or the ref to fetch from disk (miss), or neither.
func (ix *index[R]) cachedOrRef(key string) (v R, r ref, cached, ok bool) {
	h := hashKey(key)
	sh := ix.shard(h)
	ix.lock(sh)
	r, ok = sh.find(key, h)
	if ok && sh.lru != nil {
		if cv, hit := sh.lru.get(key); hit {
			v, cached = cv, true
		}
	}
	sh.mu.Unlock()
	if ok {
		if cached {
			ix.met.CacheHits.Inc()
		} else {
			ix.met.CacheMisses.Inc()
		}
	}
	return v, r, cached, ok
}

// admit caches a freshly decoded value, keyed under the ref it was decoded
// from — a stale ref (the key was overwritten or compacted meanwhile) is
// not admitted, so the cache can never pin a superseded value.
func (ix *index[R]) admit(key string, r ref, v R) {
	h := hashKey(key)
	sh := ix.shard(h)
	ix.lock(sh)
	if sh.lru != nil {
		if cur, ok := sh.find(key, h); ok && cur == r {
			sh.lru.add(key, v)
		}
	}
	sh.mu.Unlock()
}

// setIfNewer indexes key → r unless an entry from a later (segment, offset)
// is already present. Concurrent segment replays and racing Puts both funnel
// through this, so application order never changes the outcome. The decoded
// value (when the caller has one, i.e. on Put) refreshes the LRU.
func (ix *index[R]) setIfNewer(key string, r ref, v *R) {
	h := hashKey(key)
	sh := ix.shard(h)
	ix.lock(sh)
	inserted, updated := sh.set(key, h, r)
	if updated && sh.lru != nil {
		if v != nil {
			sh.lru.add(key, *v)
		} else {
			sh.lru.drop(key)
		}
	}
	sh.mu.Unlock()
	if inserted {
		ix.count.Add(1)
		if ix.isLegacy != nil && ix.isLegacy(key) {
			ix.legacy.Add(1)
		}
	}
}

// find probes for key. Callers hold the shard lock.
func (sh *indexShard[R]) find(key string, h uint64) (ref, bool) {
	ik, inline := makeIkey(key)
	if !inline {
		r, ok := sh.overflow[key]
		return r, ok
	}
	if sh.slots == nil {
		return ref{}, false
	}
	n := uint64(len(sh.slots))
	for i := h % n; ; i = (i + 1) % n {
		s := &sh.slots[i]
		if s.key.kind == ikeyEmpty {
			return ref{}, false
		}
		if s.key == ik {
			return s.ref, true
		}
	}
}

// set inserts or updates key → r under last-write-wins. Reports whether a
// new key was inserted and whether the stored ref changed.
func (sh *indexShard[R]) set(key string, h uint64, r ref) (inserted, updated bool) {
	ik, inline := makeIkey(key)
	if !inline {
		old, ok := sh.overflow[key]
		if ok && !r.newer(old) {
			return false, false
		}
		if sh.overflow == nil {
			sh.overflow = map[string]ref{}
		}
		sh.overflow[key] = r
		return !ok, true
	}
	if sh.slots == nil {
		sh.slots = make([]islot, indexShardMinSlots)
	}
	n := uint64(len(sh.slots))
	for i := h % n; ; i = (i + 1) % n {
		s := &sh.slots[i]
		if s.key.kind == ikeyEmpty {
			if (sh.used+1)*20 >= len(sh.slots)*17 { // 85% load cap
				sh.grow()
				return sh.set(key, h, r)
			}
			s.key, s.ref = ik, r
			sh.used++
			return true, true
		}
		if s.key == ik {
			if !r.newer(s.ref) {
				return false, false
			}
			s.ref = r
			return false, true
		}
	}
}

// grow resizes the slot table 1.5× and reinserts every entry. Callers hold
// the shard lock.
func (sh *indexShard[R]) grow() {
	old := sh.slots
	sh.slots = make([]islot, len(old)+len(old)/2)
	n := uint64(len(sh.slots))
	for _, s := range old {
		if s.key.kind == ikeyEmpty {
			continue
		}
		for i := hashKey(s.key.String()) % n; ; i = (i + 1) % n {
			if sh.slots[i].key.kind == ikeyEmpty {
				sh.slots[i] = s
				break
			}
		}
	}
}

// each visits every (key, ref) pair, one shard at a time (the index may
// mutate between shards but not within one). Return false to stop.
func (ix *index[R]) each(fn func(key string, r ref) bool) {
	for i := range ix.shards {
		sh := &ix.shards[i]
		ix.lock(sh)
		cont := true
		for j := range sh.slots {
			if sh.slots[j].key.kind == ikeyEmpty {
				continue
			}
			if !fn(sh.slots[j].key.String(), sh.slots[j].ref) {
				cont = false
				break
			}
		}
		if cont {
			for k, r := range sh.overflow {
				if !fn(k, r) {
					cont = false
					break
				}
			}
		}
		sh.mu.Unlock()
		if !cont {
			return
		}
	}
}

// rebuild atomically replaces the whole index contents with the given
// snapshot — the compaction commit: every surviving key points at its new
// segment, dropped keys vanish, counters are recomputed. Callers must
// guarantee no concurrent setIfNewer (Puts are blocked under the writer
// lock during compaction; lookups stay live shard by shard).
func (ix *index[R]) rebuild(entries map[string]ref) {
	var count, legacy int64
	byShard := make([][]struct {
		key string
		r   ref
	}, len(ix.shards))
	for k, r := range entries {
		s := hashKey(k) >> ix.shift
		byShard[s] = append(byShard[s], struct {
			key string
			r   ref
		}{k, r})
		count++
		if ix.isLegacy != nil && ix.isLegacy(k) {
			legacy++
		}
	}
	for i := range ix.shards {
		sh := &ix.shards[i]
		ix.lock(sh)
		sh.slots, sh.used, sh.overflow = nil, 0, nil
		if sh.lru != nil {
			sh.lru.reset()
		}
		for _, e := range byShard[i] {
			sh.set(e.key, hashKey(e.key), e.r)
		}
		sh.mu.Unlock()
	}
	ix.count.Store(count)
	ix.legacy.Store(legacy)
}

// keys returns every indexed key, sorted.
func (ix *index[R]) keys() []string {
	out := make([]string, 0, ix.count.Load())
	ix.each(func(k string, _ ref) bool {
		out = append(out, k)
		return true
	})
	sort.Strings(out)
	return out
}

// lruCache is a tiny bounded most-recently-used cache of decoded values.
// It lives under its shard's lock, so it needs no locking of its own.
type lruCache[R any] struct {
	cap  int
	m    map[string]*lruNode[R]
	head *lruNode[R] // most recent
	tail *lruNode[R] // least recent
}

type lruNode[R any] struct {
	key        string
	val        R
	prev, next *lruNode[R]
}

func newLRU[R any](capacity int) *lruCache[R] {
	return &lruCache[R]{cap: capacity, m: make(map[string]*lruNode[R], capacity)}
}

func (c *lruCache[R]) get(key string) (R, bool) {
	n, ok := c.m[key]
	if !ok {
		var zero R
		return zero, false
	}
	c.moveFront(n)
	return n.val, true
}

func (c *lruCache[R]) add(key string, v R) {
	if n, ok := c.m[key]; ok {
		n.val = v
		c.moveFront(n)
		return
	}
	if len(c.m) >= c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.m, evict.key)
	}
	n := &lruNode[R]{key: key, val: v}
	c.m[key] = n
	c.pushFront(n)
}

func (c *lruCache[R]) drop(key string) {
	if n, ok := c.m[key]; ok {
		c.unlink(n)
		delete(c.m, key)
	}
}

func (c *lruCache[R]) reset() {
	c.m = make(map[string]*lruNode[R], c.cap)
	c.head, c.tail = nil, nil
}

func (c *lruCache[R]) pushFront(n *lruNode[R]) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache[R]) unlink(n *lruNode[R]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruCache[R]) moveFront(n *lruNode[R]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
