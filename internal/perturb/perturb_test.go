package perturb

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNormalizeFoldsNoOpComponents(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Spec
		zero bool
	}{
		{"zero", Spec{}, true},
		{"slowdown-factor-1", Spec{SlowdownProb: 0.9, SlowdownFactor: 1}, true},
		{"slowdown-no-prob", Spec{SlowdownFactor: 8}, true},
		{"stall-no-mean", Spec{StallRate: 5}, true},
		{"stall-no-rate", Spec{StallMean: 10}, true},
		{"restart-no-fail", Spec{RestartCost: 600}, true},
		{"live-failures", Spec{FailProb: 0.01}, false},
		{"live-stalls", Spec{StallRate: 1, StallMean: 1}, false},
	} {
		n := tc.in.Normalize()
		if n.IsZero() != tc.zero {
			t.Errorf("%s: IsZero = %v, want %v (normalized %+v)", tc.name, n.IsZero(), tc.zero, n)
		}
		if n.Normalize() != n {
			t.Errorf("%s: Normalize not idempotent: %+v vs %+v", tc.name, n.Normalize(), n)
		}
		if tc.in.Enabled() == tc.in.IsZero() {
			t.Errorf("%s: Enabled must be the negation of IsZero", tc.name)
		}
	}
}

func TestValidateRejectsOutOfDomain(t *testing.T) {
	for name, s := range map[string]Spec{
		"negative prob":    {SlowdownProb: -0.1},
		"prob above 1":     {FailProb: 1.5},
		"huge stall rate":  {StallRate: MaxStallRate + 1},
		"huge restart":     {RestartCost: MaxRestartCost + 1},
		"huge factor":      {SlowdownFactor: MaxSlowdownFactor + 1},
		"huge stall mean":  {StallMean: MaxStallMean + 1},
		"negative restart": {RestartCost: -1},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	ok := Spec{SlowdownProb: 0.1, SlowdownFactor: 4, StallRate: 1, StallMean: 5, FailProb: 0.001, RestartCost: 60}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestParseJSONStrictAndTyped(t *testing.T) {
	s, err := ParseJSON([]byte(`{"fail_prob":0.01,"restart_cost_s":60}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.FailProb != 0.01 || s.RestartCost != 60 {
		t.Fatalf("decoded %+v", s)
	}
	if _, err := ParseJSON([]byte("{\"fail_prob\":0.01}\n\t ")); err != nil {
		t.Errorf("refused a whitespace tail: %v", err)
	}
	for name, in := range map[string]string{
		"unknown field":    `{"fail_prob":0.01,"restrat_cost_s":60}`,
		"trailing doc":     `{"fail_prob":0.01}{"fail_prob":0.02}`,
		"closing brace":    `{"fail_prob":0.01}}`,
		"closing bracket":  `{"fail_prob":0.01}]`,
		"trailing garbage": `{"fail_prob":0.01} trailing garbage`,
		"out of domain":    `{"fail_prob":7}`,
		"not json":         `fail_prob=0.01`,
	} {
		if _, err := ParseJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		} else if !strings.Contains(err.Error(), "perturb") {
			t.Errorf("%s: error not typed with package context: %v", name, err)
		}
	}
}

func TestCanonicalNormalizesAndIsStable(t *testing.T) {
	live := Spec{StallRate: 0.5, StallMean: 2}
	if got, want := live.Canonical(),
		"perturb{slowdown_prob=0;slowdown_factor=0;stall_rate=0.5;stall_mean=2;fail_prob=0;restart_cost=0}"; got != want {
		t.Fatalf("canonical drifted:\n got %s\nwant %s", got, want)
	}
	// No-op components vanish from the encoding.
	noisy := live
	noisy.SlowdownProb, noisy.SlowdownFactor = 0.9, 1
	if noisy.Canonical() != live.Canonical() {
		t.Fatalf("no-op slowdown leaked into the canonical encoding")
	}
}

// TestStreamDeterministicAndDisjoint pins the determinism contract the
// simulator builds on: same (spec, seed, rank) reproduces the draw
// sequence; different ranks draw decorrelated sequences.
func TestStreamDeterministicAndDisjoint(t *testing.T) {
	spec := Spec{SlowdownProb: 0.5, SlowdownFactor: 3, StallRate: 1, StallMean: 2, FailProb: 0.1}
	a, b := spec.Stream(42, 7), spec.Stream(42, 7)
	other := spec.Stream(42, 8)
	same, diff := true, false
	if a.Factor() != b.Factor() {
		t.Fatalf("factor not reproducible: %v vs %v", a.Factor(), b.Factor())
	}
	for i := 0; i < 32; i++ {
		s1, f1 := a.Step()
		s2, f2 := b.Step()
		s3, _ := other.Step()
		if s1 != s2 || f1 != f2 {
			same = false
		}
		if s1 != s3 {
			diff = true
		}
		if s1 < 0 {
			t.Fatalf("negative stall %v", s1)
		}
	}
	if !same {
		t.Fatal("identical streams diverged")
	}
	if !diff {
		t.Fatal("distinct ranks drew identical stall sequences")
	}
}

func TestJSONRoundTripIsFixedPoint(t *testing.T) {
	n := Spec{SlowdownProb: 0.25, SlowdownFactor: 2.5, FailProb: 1e-4, RestartCost: 90}.Normalize()
	blob, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back != n {
		t.Fatalf("round trip moved the spec:\n got %+v\nwant %+v", back, n)
	}
}

func TestStringSummarizes(t *testing.T) {
	if got := (Spec{}).String(); got != "perturb{off}" {
		t.Fatalf("zero spec prints %q", got)
	}
	s := Spec{FailProb: 0.01, RestartCost: 60}.String()
	if !strings.Contains(s, "fail 0.01") {
		t.Fatalf("summary %q misses the failure component", s)
	}
}
