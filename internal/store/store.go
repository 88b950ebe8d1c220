// Package store persists scenario results across process lifetimes. The
// sweep engine's in-memory memo (sweep.Cache) dies with the process; a Store
// is the durable layer underneath it, keyed by the same canonical scenario
// fingerprint (cluster.Options.Fingerprint plus the kernel-census options),
// so a result simulated by one `scalefold sweep`, one figure runner or one
// sweep-service job is served for free to every later one.
//
// Three implementations ship: Mem, a trivial map for tests and store-less
// serving; Disk, an append-only JSON-lines segment log reloaded at startup
// that one process owns; and Shared, the same log written by a fleet of
// processes, each appending only to its own owner lease. Disk and Shared
// are one core with one segment writer — Put and Compact on both append
// through it — and differ only in their directory lock and in which
// segments they own. All three are safe for concurrent use.
package store

import (
	"sort"
	"sync"
)

// Store is the persistence interface the scalefold memo sits on. Get and Put
// must be safe for concurrent use. Put overwrites: the last value written
// for a key wins. Unlike sweep.Cache there is no singleflight here — in-
// flight deduplication stays the memo's job; the store only settles results.
type Store[R any] interface {
	// Get returns the stored value for key, if any.
	Get(key string) (R, bool)
	// Put stores the value under key, replacing any previous value.
	Put(key string, v R) error
	// Keys returns every stored key, sorted.
	Keys() []string
	// Len returns the number of stored keys.
	Len() int
}

// Mem is an in-memory Store: process-lifetime persistence only. Useful for
// tests and for running the sweep service without a disk directory.
type Mem[R any] struct {
	mu  sync.RWMutex
	m   map[string]R
	met Metrics
}

// NewMem returns an empty in-memory store, instrumented by WithMetrics.
func NewMem[R any](opts ...Option) *Mem[R] {
	return &Mem[R]{m: map[string]R{}, met: buildConfig(opts).metrics}
}

// Get returns the stored value for key, if any.
func (s *Mem[R]) Get(key string) (R, bool) {
	t0 := s.met.start()
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	s.met.lookup(t0, ok)
	return v, ok
}

// Put stores the value under key. It never fails.
func (s *Mem[R]) Put(key string, v R) error {
	t0 := s.met.start()
	s.mu.Lock()
	s.m[key] = v
	n := len(s.m)
	s.mu.Unlock()
	s.met.appended(t0, n)
	return nil
}

// Keys returns every stored key, sorted.
func (s *Mem[R]) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of stored keys.
func (s *Mem[R]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
