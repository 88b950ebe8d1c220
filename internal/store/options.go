package store

// Defaults for the lazy disk stores. Shards bound writer/reader contention
// (64 shards × per-shard mutexes is plenty for GOMAXPROCS-scale fan-in);
// the cache bounds decode work for hot keys while keeping resident memory
// O(records × ~32B) + O(cache × value).
const (
	DefaultShards       = 64
	DefaultCacheEntries = 4096
)

// config collects the knobs OpenDisk and OpenShared accept.
type config struct {
	shards       int
	cacheEntries int
	legacy       func(string) bool
	metrics      Metrics
}

// An Option tunes OpenDisk, OpenShared or NewMem (which honours only
// WithMetrics).
type Option func(*config)

// WithShards sets the index shard count (rounded up to a power of two,
// minimum 1). More shards cut lock contention under concurrent load at a
// few hundred bytes apiece.
func WithShards(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithCache bounds the decoded-value cache to n entries across the whole
// store (split evenly over shards). Zero disables caching: every Get hit
// reads and decodes its record from the page cache.
func WithCache(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.cacheEntries = n
		}
	}
}

// WithMetrics attaches observability series before replay begins, so the
// open itself (sidecar loads, self-heal rebuilds) is counted.
func WithMetrics(m Metrics) Option {
	return func(c *config) { c.metrics = m }
}

// WithLegacyKey installs a predicate marking keys from older fingerprint
// generations. The store counts matching keys incrementally during replay
// and Put (reported by Legacy()), and Compact drops their records. The
// predicate must be pure and safe for concurrent use.
func WithLegacyKey(fn func(key string) bool) Option {
	return func(c *config) { c.legacy = fn }
}

func buildConfig(opts []Option) config {
	c := config{shards: DefaultShards, cacheEntries: DefaultCacheEntries}
	for _, o := range opts {
		o(&c)
	}
	return c
}
