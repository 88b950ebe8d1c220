// Package sweep is a declarative, parallel scenario-sweep engine for the
// cluster simulator. A sweep is described as a Grid of named Axes (GPU arch ×
// rank count × DAP width × ablation switch × seed, or any other dimensions),
// expanded into concrete Points by cartesian product. Points map to typed
// scenario configurations (Cells) and run across a bounded worker pool of
// goroutines with deterministic per-scenario seed derivation, memoization
// keyed by a canonical scenario fingerprint (repeated cells — e.g. the
// reference configuration shared by Figures 7, 8 and 9 — run once), streaming
// progress callbacks, and CSV/JSON result emitters.
//
// The experiment runners in package scalefold are thin grid declarations over
// this engine, and the `scalefold sweep` subcommand exposes the axes as CLI
// flags so scenarios the paper never plotted can be explored.
package sweep

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Axis is one named dimension of a scenario grid, with its ordered values.
type Axis struct {
	Name   string
	Values []string
}

// Coord is one concrete axis assignment of a Point.
type Coord struct {
	Axis, Value string
}

// Point is one concrete scenario: one value per grid axis, in axis order.
type Point struct {
	Coords []Coord
}

// Get returns the value of the named axis ("" if the axis is absent).
func (p Point) Get(axis string) string {
	for _, c := range p.Coords {
		if c.Axis == axis {
			return c.Value
		}
	}
	return ""
}

// Fingerprint returns the canonical "axis=value,axis=value" serialization of
// the point, in axis order. Two points are the same scenario iff their
// fingerprints are equal.
func (p Point) Fingerprint() string {
	parts := make([]string, len(p.Coords))
	for i, c := range p.Coords {
		parts[i] = c.Axis + "=" + c.Value
	}
	return strings.Join(parts, ",")
}

// Grid is an ordered set of axes describing a full-factorial sweep.
type Grid struct {
	Axes []Axis
}

// Size returns the number of points the grid expands to.
func (g Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	return n
}

// Validate rejects grids that cannot expand to a duplicate-free point set:
// unnamed or empty axes, duplicate axis names, duplicate values on one axis.
func (g Grid) Validate() error {
	names := map[string]bool{}
	for _, a := range g.Axes {
		if a.Name == "" {
			return fmt.Errorf("sweep: axis with empty name")
		}
		if names[a.Name] {
			return fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		names[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", a.Name)
		}
		seen := map[string]bool{}
		for _, v := range a.Values {
			if seen[v] {
				return fmt.Errorf("sweep: axis %q repeats value %q", a.Name, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// Expand returns the cartesian product of the axes in row-major order (the
// last axis varies fastest), exactly Size() points, duplicate-free.
func (g Grid) Expand() ([]Point, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	points := make([]Point, 0, g.Size())
	idx := make([]int, len(g.Axes))
	for {
		coords := make([]Coord, len(g.Axes))
		for i, a := range g.Axes {
			coords[i] = Coord{Axis: a.Name, Value: a.Values[idx[i]]}
		}
		points = append(points, Point{Coords: coords})
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(g.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return points, nil
		}
	}
}

// SeedFor derives a deterministic per-scenario RNG seed from a base seed and
// a scenario fingerprint (FNV-1a of the fingerprint mixed with the base).
// Distinct scenarios get decorrelated streams; the same scenario gets the
// same seed on every run and under every worker count.
func SeedFor(base int64, fingerprint string) int64 {
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	s := int64(h.Sum64()^uint64(base)*0x9E3779B97F4A7C15) % (1 << 62)
	if s < 0 {
		s = -s
	}
	return s
}

// ParseList splits a comma-separated axis flag ("128,256,512") into trimmed
// values, dropping empties — the canonical way CLI flags become Axis values.
func ParseList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
