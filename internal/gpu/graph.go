package gpu

import "time"

// GraphCache implements the CUDA Graph cache of §3.2: AlphaFold's recycling
// makes the traced kernel sequence depend on the per-sample recycling count,
// so a single captured graph would be invalidated constantly. The cache
// keeps one captured graph per recycling scenario; the first execution of a
// scenario pays the capture cost, later executions pay only the replay
// overhead.
type GraphCache struct {
	captured map[int]bool
}

// NewGraphCache returns an empty cache.
func NewGraphCache() *GraphCache {
	return &GraphCache{captured: map[int]bool{}}
}

// Launch returns the CPU cost of executing a step with `launches` kernels
// under the graph for recycling scenario `key`: the capture cost — one
// eager pass of launch work — on first sight of the key plus one replay,
// or just one replay thereafter. The per-kernel CPU launch overhead — and
// with it the sensitivity to CPU peaks — disappears entirely.
func (g *GraphCache) Launch(a Arch, key int, launches int) time.Duration {
	cost := a.GraphReplayOverhead
	if !g.captured[key] {
		g.captured[key] = true
		cost += time.Duration(launches) * a.LaunchOverhead
	}
	return cost
}
