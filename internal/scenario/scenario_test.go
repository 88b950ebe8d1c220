package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/perturb"
	"repro/internal/workload"
)

// fig7ish is a representative optimized scenario (the Figure 7 H100×256
// DAP-2 cell) assembled from raw fields — package scalefold's constructors
// sit above this package.
func fig7ish() Scenario {
	return Scenario{
		Platform: "H100", Ranks: 256, DAP: 2,
		Census: workload.Options{
			FusedMHA: true, FusedLN: true, FusedAdamSWA: true,
			BatchedGEMM: true, BF16: true, BucketedClip: true,
			Recycles: 3, DAP: 2,
		},
		CUDAGraph: true, NonBlocking: true,
		Seed: 1,
	}
}

func TestNormalizeResolvesAliasesAndDefaults(t *testing.T) {
	n, err := fig7ish().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Platform != "h100-eos" {
		t.Fatalf("alias H100 must normalize to h100-eos, got %q", n.Platform)
	}
	if n.CPU != "default" || n.Prep != "openfold" || n.Ablation != "none" {
		t.Fatalf("profile defaults not applied: %+v", n)
	}
	if n.Workers != 10 || n.Prefetch != 32 || n.Steps != 6 {
		t.Fatalf("tunable defaults not applied: workers=%d prefetch=%d steps=%d", n.Workers, n.Prefetch, n.Steps)
	}
}

func TestFingerprintIgnoresSpelling(t *testing.T) {
	a := fig7ish()
	b := fig7ish()
	b.Platform = "h100-eos" // canonical name instead of alias
	b.CPU = "default"       // explicit defaults instead of zero values
	b.Prep = "openfold"
	b.Ablation = "none"
	b.Workers, b.Prefetch, b.Steps = 10, 32, 6
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("spelling variants of the same scenario must share a fingerprint:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
}

func TestFingerprintSeparatesScenarios(t *testing.T) {
	base := fig7ish()
	for name, mut := range map[string]func(*Scenario){
		"platform": func(s *Scenario) { s.Platform = "a100-selene" },
		"cpu":      func(s *Scenario) { s.CPU = "quiet" },
		"prep":     func(s *Scenario) { s.Prep = "precomputed" },
		"ranks":    func(s *Scenario) { s.Ranks = 512 },
		"dap":      func(s *Scenario) { s.DAP = 4; s.Census.DAP = 4 },
		"census":   func(s *Scenario) { s.Census.BF16 = false },
		"graph":    func(s *Scenario) { s.CUDAGraph = false },
		"nonblock": func(s *Scenario) { s.NonBlocking = false },
		"gc":       func(s *Scenario) { s.DisableGC = true },
		"workers":  func(s *Scenario) { s.Workers = 4 },
		"prefetch": func(s *Scenario) { s.Prefetch = 128 },
		"ablation": func(s *Scenario) { s.Ablation = "zero-comm" },
		"seed":     func(s *Scenario) { s.Seed = 99 },
		"steps":    func(s *Scenario) { s.Steps = 12 },
		"mode":     func(s *Scenario) { s.Mode = ModeAnalytic },
	} {
		m := base
		mut(&m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s mutation must change the fingerprint", name)
		}
	}
}

// TestFingerprintExcludesSimWorkers pins the one deliberate exclusion from
// the canonical encoding: SimWorkers shards the simulator's work across
// goroutines without changing a Result bit, so scenarios differing only
// there must share a Canonical string, a fingerprint, a memo entry and a
// store record — and the encoding (hence Version, hence every existing
// store) must not move.
func TestFingerprintExcludesSimWorkers(t *testing.T) {
	base := fig7ish()
	for _, w := range []int{1, 4, 8, 64} {
		m := base
		m.SimWorkers = w
		if m.Canonical() != base.Canonical() {
			t.Fatalf("SimWorkers=%d leaked into the canonical encoding:\n%s\nvs\n%s",
				w, m.Canonical(), base.Canonical())
		}
		if m.Fingerprint() != base.Fingerprint() {
			t.Fatalf("SimWorkers=%d must not change the fingerprint", w)
		}
	}
	// It still lowers to the simulator option and survives the wire format.
	m := base
	m.SimWorkers = 8
	o, err := m.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.SimWorkers != 8 {
		t.Fatalf("SimWorkers must lower to cluster.Options, got %d", o.SimWorkers)
	}
	neg := base
	neg.SimWorkers = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative SimWorkers must be rejected")
	}
}

func TestFingerprintIsVersioned(t *testing.T) {
	fp := fig7ish().Fingerprint()
	if !strings.HasPrefix(fp, "v3:") {
		t.Fatalf("fingerprint %q must carry the v3: version prefix", fp)
	}
	if !IsCurrentKey(fp) {
		t.Fatalf("IsCurrentKey must accept a fresh fingerprint %q", fp)
	}
	for _, legacy := range []string{
		"census{{false false ...}}|ranks=256|dap=2|arch={H100 ...}", // v1/v2 %+v dumps
		"v2:deadbeef",
		"",
	} {
		if IsCurrentKey(legacy) {
			t.Errorf("IsCurrentKey must reject legacy key %q", legacy)
		}
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	for name, mut := range map[string]func(*Scenario){
		"unknown platform":  func(s *Scenario) { s.Platform = "TPU" },
		"unknown cpu":       func(s *Scenario) { s.CPU = "overclocked" },
		"unknown prep":      func(s *Scenario) { s.Prep = "instant" },
		"unknown ablation":  func(s *Scenario) { s.Ablation = "zero-lunch" },
		"unknown mode":      func(s *Scenario) { s.Mode = "psychic" },
		"zero ranks":        func(s *Scenario) { s.Ranks = 0 },
		"zero dap":          func(s *Scenario) { s.DAP = 0 },
		"indivisible":       func(s *Scenario) { s.Ranks = 30; s.DAP = 4 },
		"census dap clash":  func(s *Scenario) { s.Census.DAP = 8 },
		"negative steps":    func(s *Scenario) { s.Steps = -1 },
		"negative recycles": func(s *Scenario) { s.Census.Recycles = -1 },
	} {
		s := fig7ish()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate must reject %+v", name, s)
		}
	}
	if err := fig7ish().Validate(); err != nil {
		t.Fatalf("the representative scenario must validate: %v", err)
	}
}

func TestOptionsLowersAblationWithoutPanic(t *testing.T) {
	for _, ab := range Ablations {
		s := fig7ish()
		s.Ablation = ab
		if _, err := s.Options(); err != nil {
			t.Fatalf("ablation %q must lower: %v", ab, err)
		}
	}
	s := fig7ish()
	s.Ablation = "zero-lunch"
	if _, err := s.Options(); err == nil {
		t.Fatal("unknown ablation must surface as an error, not a panic")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := fig7ish()
	s.Ablation = "zero-serial"
	s.Prep = "precomputed"
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("JSON round trip changed the scenario:\n%+v\nvs\n%+v", back, s)
	}
	if back.Fingerprint() != s.Fingerprint() {
		t.Fatal("JSON round trip changed the fingerprint")
	}
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"platform":"H100","ranks":8,"dap":1,"sed":3}`)); err == nil {
		t.Fatal("typo'd field must be rejected, not silently dropped")
	}
	if _, err := ParseJSONList([]byte(`[{"platform":"H100","ranks":8,"dap":1,"census":{"bf17":true}}]`)); err == nil {
		t.Fatal("typo'd census field must be rejected")
	}
}

// TestParseJSONRejectsTrailingData: both strict decoders refuse anything but
// whitespace after the first document — a concatenated second document, a
// stray closing brace or bracket (which Decoder.More does not report) or
// garbage — so no tail is dropped without notice.
func TestParseJSONRejectsTrailingData(t *testing.T) {
	const one = `{"platform":"H100","ranks":8,"dap":1,"seed":1}`
	for name, d := range map[string]struct {
		doc   string
		parse func([]byte) error
	}{
		"ParseJSON":     {one, func(b []byte) error { _, err := ParseJSON(b); return err }},
		"ParseJSONList": {"[" + one + "]", func(b []byte) error { _, err := ParseJSONList(b); return err }},
	} {
		for _, tc := range []struct {
			tail string
			ok   bool
		}{
			{"", true},
			{" \n\t", true},
			{"\n" + d.doc, false},
			{" {}", false},
			{"}", false},
			{"]", false},
			{" trailing garbage", false},
		} {
			err := d.parse([]byte(d.doc + tc.tail))
			if tc.ok && err != nil {
				t.Errorf("%s: refused tail %q: %v", name, tc.tail, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("%s: accepted tail %q", name, tc.tail)
			}
		}
	}
}

func TestOmittedCensusDAPFollowsGeometry(t *testing.T) {
	// census.dap = 0 means "follow the geometry": the normalized form,
	// fingerprint and store key match the explicitly-sharded spelling, and
	// the lowered census shards the kernels at the plan's degree.
	implicit := fig7ish()
	implicit.Census.DAP = 0
	if err := implicit.Validate(); err != nil {
		t.Fatalf("unset census DAP must validate: %v", err)
	}
	n, err := implicit.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Census.DAP != 2 {
		t.Fatalf("census DAP must follow geometry DAP-2, got %d", n.Census.DAP)
	}
	if implicit.Fingerprint() != fig7ish().Fingerprint() {
		t.Fatal("implicit and explicit census DAP must be one scenario")
	}
}

func TestOptionsMatchesClusterDefaults(t *testing.T) {
	// The scenario layer's defaults must lower to the production-like H100
	// setup every figure is pinned with (10 loader workers, prefetch 32, 6
	// steps, Eos topology, the default CPU model) — the byte-identity of
	// every figure depends on it.
	s := Scenario{Platform: "H100", Ranks: 128, DAP: 1, Census: workload.Baseline(), Seed: 1}
	o, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.Workers != 10 || o.Prefetch != 32 || o.Steps != 6 {
		t.Fatalf("defaults drifted: %+v", o)
	}
	if o.Arch.Name != "H100" || o.Topo.GPUsPerNode != 8 || !o.CPU.GCEnabled {
		t.Fatalf("profile resolution drifted: %+v", o)
	}
	s.DisableGC = true
	o, err = s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.CPU.GCEnabled {
		t.Fatal("DisableGC must flip the CPU model's GC switch")
	}
}

// TestPerturbFingerprintGenerations pins the conditional-versioning
// contract of the perturbation layer: an absent or no-op Perturb block
// leaves the scenario on its exact v3 encoding and key (so every
// pre-perturbation store keeps serving healthy cells), while a live block
// appends its canonical encoding and mints a v4 key that can never collide
// with — or be satisfied by — any v3 record.
func TestPerturbFingerprintGenerations(t *testing.T) {
	base := fig7ish()
	if fp := base.Fingerprint(); !strings.HasPrefix(fp, "v3:") {
		t.Fatalf("unperturbed fingerprint %q must stay on the v3 generation", fp)
	}

	// A spec that normalizes to nothing IS the healthy cluster.
	noop := base
	noop.Perturb = &perturb.Spec{SlowdownProb: 0.9, SlowdownFactor: 1, RestartCost: 600}
	if noop.Fingerprint() != base.Fingerprint() {
		t.Fatalf("no-op perturb moved the key: %s vs %s", noop.Fingerprint(), base.Fingerprint())
	}
	if noop.Canonical() != base.Canonical() {
		t.Fatalf("no-op perturb leaked into the canonical encoding:\n%s\nvs\n%s",
			noop.Canonical(), base.Canonical())
	}
	n, err := noop.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Perturb != nil {
		t.Fatalf("normalize kept a no-op perturb block: %+v", n.Perturb)
	}

	// A live spec moves to v4 and encodes the block.
	live := base
	live.Perturb = &perturb.Spec{FailProb: 0.001, RestartCost: 60}
	fp := live.Fingerprint()
	if !strings.HasPrefix(fp, "v4:") {
		t.Fatalf("perturbed fingerprint %q must be v4-prefixed", fp)
	}
	if !IsCurrentKey(fp) || !IsCurrentKey(base.Fingerprint()) {
		t.Fatal("both generations must be current keys")
	}
	if !strings.Contains(live.Canonical(), ";perturb{") {
		t.Fatalf("perturbed canonical misses the block:\n%s", live.Canonical())
	}
	if fp == base.Fingerprint() {
		t.Fatal("perturbed and healthy scenarios must never share a key")
	}

	// Different perturbations are different scenarios.
	harder := base
	harder.Perturb = &perturb.Spec{FailProb: 0.01, RestartCost: 60}
	if harder.Fingerprint() == fp {
		t.Fatal("distinct failure rates collapsed to one key")
	}

	// And the block survives the wire format.
	blob, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != fp {
		t.Fatalf("wire round trip moved the v4 key: %s vs %s", back.Fingerprint(), fp)
	}

	// Lowering carries the spec into the simulator options.
	o, err := live.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !o.Perturb.Enabled() || o.Perturb.FailProb != 0.001 {
		t.Fatalf("perturb did not lower into cluster.Options: %+v", o.Perturb)
	}
}

// TestModeFingerprintGenerations pins the conditional-versioning contract of
// the resolution mode: "" and "exact" are one scenario on the exact v3 (or,
// perturbed, v4) encoding and key — so every pre-existing store keeps
// serving — while "analytic" and "auto" append a ";mode=..." block and mint
// v5 keys that can never collide with, or be satisfied by, any exact record.
func TestModeFingerprintGenerations(t *testing.T) {
	base := fig7ish()

	// Explicit "exact" is the zero value: same key, same encoding, and
	// Normalize folds the spelling away.
	exact := base
	exact.Mode = ModeExact
	if exact.Fingerprint() != base.Fingerprint() {
		t.Fatalf("mode=exact moved the key: %s vs %s", exact.Fingerprint(), base.Fingerprint())
	}
	if exact.Canonical() != base.Canonical() {
		t.Fatalf("mode=exact leaked into the canonical encoding:\n%s\nvs\n%s",
			exact.Canonical(), base.Canonical())
	}
	n, err := exact.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Mode != "" {
		t.Fatalf("normalize kept the explicit exact spelling: %q", n.Mode)
	}

	// Analytic and auto mint distinct v5 keys and encode the block.
	seen := map[string]bool{base.Fingerprint(): true}
	for _, mode := range []string{ModeAnalytic, ModeAuto} {
		m := base
		m.Mode = mode
		fp := m.Fingerprint()
		if !strings.HasPrefix(fp, "v5:") {
			t.Fatalf("mode=%s fingerprint %q must be v5-prefixed", mode, fp)
		}
		if !IsCurrentKey(fp) {
			t.Fatalf("mode=%s key %q must be current", mode, fp)
		}
		if !strings.Contains(m.Canonical(), ";mode="+mode) {
			t.Fatalf("mode=%s canonical misses the block:\n%s", mode, m.Canonical())
		}
		if seen[fp] {
			t.Fatalf("mode=%s collided with another generation's key", mode)
		}
		seen[fp] = true

		// The mode survives the wire format.
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSON(blob)
		if err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != fp {
			t.Fatalf("wire round trip moved the v5 key: %s vs %s", back.Fingerprint(), fp)
		}
	}

	// A perturbed analytic scenario is v5, not v4 — an estimate of an
	// unhealthy cell is still an estimate.
	pa := base
	pa.Mode = ModeAnalytic
	pa.Perturb = &perturb.Spec{FailProb: 0.001, RestartCost: 60}
	if fp := pa.Fingerprint(); !strings.HasPrefix(fp, "v5:") {
		t.Fatalf("perturbed analytic fingerprint %q must be v5-prefixed", fp)
	}
	if !strings.Contains(pa.Canonical(), ";perturb{") || !strings.Contains(pa.Canonical(), ";mode=analytic") {
		t.Fatalf("perturbed analytic canonical misses a block:\n%s", pa.Canonical())
	}

	// Unknown modes are rejected at both gates.
	bad := base
	bad.Mode = "psychic"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown mode must be rejected by Validate")
	}
	if _, err := bad.Normalize(); err == nil {
		t.Fatal("unknown mode must be rejected by Normalize")
	}
}
