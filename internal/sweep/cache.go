package sweep

import "sync"

// Cache memoizes scenario results by canonical fingerprint. It is safe for
// concurrent use and deduplicates in-flight work: when two workers reach the
// same key at once, one computes and the other blocks on the result
// (singleflight semantics), so a repeated cell never runs twice. The zero
// value is an empty cache ready to use.
type Cache[R any] struct {
	mu sync.Mutex
	m  map[string]*cacheEntry[R]
}

type cacheEntry[R any] struct {
	once sync.Once
	val  R
}

// NewCache returns an empty result cache.
func NewCache[R any]() *Cache[R] {
	return new(Cache[R])
}

// Do returns the cached result for key, computing it with f on first use.
// The second return reports whether the result came from the cache (true)
// rather than from running f in this call.
func (c *Cache[R]) Do(key string, f func() R) (R, bool) {
	c.mu.Lock()
	e, hit := c.m[key]
	if !hit {
		if c.m == nil {
			c.m = map[string]*cacheEntry[R]{}
		}
		e = &cacheEntry[R]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	ran := false
	e.once.Do(func() {
		e.val = f()
		ran = true
	})
	return e.val, !ran
}

// Len returns the number of memoized scenarios, including entries whose
// computation is still in flight.
func (c *Cache[R]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
