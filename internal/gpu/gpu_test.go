package gpu

import "testing"

func TestKernelDurationRoofline(t *testing.T) {
	a := H100()
	// A purely memory-bound kernel's duration grows with bytes.
	small := a.KernelDuration(0, 1e6, false)
	big := a.KernelDuration(0, 1e9, false)
	if big <= small {
		t.Fatal("more bytes must take longer")
	}
	// A math-dominated kernel is insensitive to removing its few bytes.
	mathOnly := a.KernelDuration(1e12, 0, false)
	mixed := a.KernelDuration(1e12, 1e3, false)
	if mixed < mathOnly {
		t.Fatal("roofline must take the max")
	}
}

func TestEfficiencyCliff(t *testing.T) {
	a := H100()
	// Per-byte cost must be worse for small kernels (poor kernel
	// scalability): halving the size should not halve the duration.
	full := a.KernelDuration(0, 64e6, false) - a.KernelFixed
	half := a.KernelDuration(0, 8e6, false) - a.KernelFixed
	if float64(half) <= float64(full)/8*1.05 {
		t.Fatalf("small kernel should be disproportionately slow: full=%v half=%v", full, half)
	}
	// With flat efficiency the scaling is proportional.
	fullFlat := a.KernelDuration(0, 64e6, true) - a.KernelFixed
	halfFlat := a.KernelDuration(0, 8e6, true) - a.KernelFixed
	ratio := float64(fullFlat) / float64(halfFlat)
	if ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("flat efficiency must scale linearly, ratio %v", ratio)
	}
}

func TestH100FasterThanA100(t *testing.T) {
	h, a := H100(), A100()
	if h.KernelDuration(1e10, 1e8, false) >= a.KernelDuration(1e10, 1e8, false) {
		t.Fatal("H100 must be faster than A100 on the same kernel")
	}
}

func TestGraphCacheCapturesOncePerKey(t *testing.T) {
	g := NewGraphCache()
	a := H100()
	first := g.Launch(a, 1, 50000)
	second := g.Launch(a, 1, 50000)
	if first <= second {
		t.Fatal("first launch must pay the capture cost")
	}
	if second != a.GraphReplayOverhead {
		t.Fatalf("replay cost %v, want %v", second, a.GraphReplayOverhead)
	}
	// A new recycling scenario re-captures.
	other := g.Launch(a, 2, 50000)
	if other != first {
		t.Fatalf("new key must capture again: %v, want %v", other, first)
	}
}

func TestGraphCacheDefaultCaptureCost(t *testing.T) {
	g := NewGraphCache()
	a := H100()
	first := g.Launch(a, 0, 10000)
	want := 10000*a.LaunchOverhead + a.GraphReplayOverhead
	if first != want {
		t.Fatalf("default capture %v, want %v", first, want)
	}
}
