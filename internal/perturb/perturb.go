// Package perturb is the typed, seeded perturbation model of the cluster
// simulator: it describes the unhealthy-cluster effects every real
// 1024-rank training run lives with — persistent per-rank stragglers
// (slowdown factor draws), transient stalls (Poisson arrivals of
// exponentially-sized pauses: network hiccups, filesystem stalls, background
// daemons), and rank failures paid for with a checkpoint-restart cost.
//
// A Spec is pure data: JSON-round-trippable (the scenario wire format
// embeds it under "perturb"), explicitly canonicalized (the v4 scenario
// fingerprint hashes Canonical()), and lowered into per-rank RNG streams
// (Stream) that the simulator's step march consumes. Each rank owns a
// private stream seeded from (simulation seed, rank), so the injected
// noise is bit-identical however the simulator shards ranks across
// goroutines — the same contract cluster.Simulate already keeps for its
// execution-jitter streams.
//
// The zero Spec means "healthy cluster": Normalize folds every no-op
// component (a zero rate, a slowdown factor ≤ 1) back to zero, and a Spec
// that normalizes to zero is treated everywhere — validation, fingerprint,
// simulation — exactly like an absent one.
package perturb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Spec declares a perturbation model. All fields are optional; the zero
// value injects nothing. Rates and probabilities are per rank per step;
// durations are seconds (the JSON field names carry the unit).
type Spec struct {
	// SlowdownProb is the probability that a rank is a persistent
	// straggler: slow host, throttled GPU, noisy neighbor. Each straggler
	// draws a slowdown factor uniformly from [1, SlowdownFactor] once at
	// startup and keeps it for the whole run.
	SlowdownProb float64 `json:"slowdown_prob,omitempty"`
	// SlowdownFactor is the worst-case compute multiplier a straggler rank
	// can draw. Values ≤ 1 make the component a no-op (Normalize zeroes it).
	SlowdownFactor float64 `json:"slowdown_factor,omitempty"`

	// StallRate is the Poisson arrival rate of transient stalls, in events
	// per rank per step. Each stall pauses the rank for an exponentially
	// distributed duration with mean StallMean seconds before the step's
	// compute begins.
	StallRate float64 `json:"stall_rate,omitempty"`
	// StallMean is the mean transient-stall duration in seconds.
	StallMean float64 `json:"stall_mean_s,omitempty"`

	// FailProb is the per-rank per-step probability of a fatal failure.
	// Any failure loses the step's work: the job replays the step and
	// additionally pays RestartCost wall-clock seconds for the
	// checkpoint-restart (detection, scheduler round trip, checkpoint
	// load, pipeline rewarm).
	FailProb float64 `json:"fail_prob,omitempty"`
	// RestartCost is the wall-clock cost of one checkpoint-restart in
	// seconds, on top of the replayed step.
	RestartCost float64 `json:"restart_cost_s,omitempty"`
}

// Domain bounds enforced by Validate. They reject nonsense before it can
// stall the simulator (a 10^300 stall rate would make every step draw
// forever) and keep the fuzzed input space meaningful: more than
// MaxStallRate stalls per step, an hour-plus mean stall, or a day-plus
// restart is outside any cluster this model describes.
const (
	MaxSlowdownFactor = 1000  // 1000× slower is already a dead rank
	MaxStallRate      = 100   // stall events per rank per step
	MaxStallMean      = 3600  // seconds: one hour mean stall
	MaxRestartCost    = 86400 // seconds: one day per restart
)

// Validate rejects specs outside the model's domain: negative or
// non-finite fields, probabilities above 1, and rates/durations beyond the
// documented bounds. It never panics; every rejection is a typed error
// naming the offending field. No-op component combinations (for example a
// positive StallRate with a zero StallMean) are not errors — Normalize
// folds them to zero.
func (s Spec) Validate() error {
	check := func(name string, v, max float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("perturb: %s must be finite, got %v", name, v)
		}
		if v < 0 {
			return fmt.Errorf("perturb: %s must be >= 0, got %v", name, v)
		}
		if v > max {
			return fmt.Errorf("perturb: %s must be <= %v, got %v", name, max, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
		max  float64
	}{
		{"slowdown_prob", s.SlowdownProb, 1},
		{"slowdown_factor", s.SlowdownFactor, MaxSlowdownFactor},
		{"stall_rate", s.StallRate, MaxStallRate},
		{"stall_mean_s", s.StallMean, MaxStallMean},
		{"fail_prob", s.FailProb, 1},
		{"restart_cost_s", s.RestartCost, MaxRestartCost},
	} {
		if err := check(c.name, c.v, c.max); err != nil {
			return err
		}
	}
	return nil
}

// Normalize folds no-op components to zero, so two specs that inject
// identical noise are one spec — same canonical encoding, same scenario
// fingerprint, same store record. Idempotent.
func (s Spec) Normalize() Spec {
	if s.SlowdownProb <= 0 || s.SlowdownFactor <= 1 {
		s.SlowdownProb, s.SlowdownFactor = 0, 0
	}
	if s.StallRate <= 0 || s.StallMean <= 0 {
		s.StallRate, s.StallMean = 0, 0
	}
	if s.FailProb <= 0 {
		s.FailProb, s.RestartCost = 0, 0
	}
	return s
}

// IsZero reports whether the normalized spec injects nothing. A Spec whose
// Normalize is zero is everywhere equivalent to an absent one: the
// scenario layer drops it and keeps the unperturbed v3 fingerprint.
func (s Spec) IsZero() bool { return s.Normalize() == Spec{} }

// Enabled reports whether the spec injects anything. It is the gate the
// simulator checks before paying any perturbation cost — a disabled spec
// leaves the unperturbed hot path (and its RNG streams) untouched.
func (s Spec) Enabled() bool { return !s.IsZero() }

// RestartCostDur returns the checkpoint-restart cost as a duration.
func (s Spec) RestartCostDur() time.Duration {
	return time.Duration(s.RestartCost * float64(time.Second))
}

// Canonical returns the explicit field-by-field encoding hashed into the
// v4 scenario fingerprint: shortest round-trip float formatting, fixed
// field order, normalized first. The format is stable by contract — it is
// pinned by the scenario golden corpus.
func (s Spec) Canonical() string {
	s = s.Normalize()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf(
		"perturb{slowdown_prob=%s;slowdown_factor=%s;stall_rate=%s;stall_mean=%s;fail_prob=%s;restart_cost=%s}",
		f(s.SlowdownProb), f(s.SlowdownFactor), f(s.StallRate), f(s.StallMean), f(s.FailProb), f(s.RestartCost))
}

// ParseJSON decodes one Spec from strict JSON: unknown fields and trailing
// data are errors (a typo'd field name cannot silently select a healthy
// cluster). The decoded spec is validated.
func ParseJSON(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("perturb: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("perturb: trailing data after the spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Stream is one rank's private perturbation RNG stream: the persistent
// slowdown factor drawn at creation plus the per-step transient draws.
// Streams are independent across ranks by construction (disjoint seeds),
// which is what lets the simulator shard ranks across any number of
// goroutines and still produce bit-identical Results. Not safe for
// concurrent use; each rank's march owns its stream exclusively.
type Stream struct {
	spec   Spec
	rng    *rand.Rand
	factor float64
}

// Stream returns rank r's perturbation stream for a simulation seeded with
// seed. The seed derivation is part of the determinism contract: the same
// (spec, seed, rank) always yields the same draw sequence, and it is
// disjoint from the simulator's execution-jitter streams (seed*31 + rank)
// so enabling perturbation never disturbs the unperturbed noise.
func (s Spec) Stream(seed int64, r int) *Stream {
	s = s.Normalize()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)*7_919 + 257))
	factor := 1.0
	if s.SlowdownProb > 0 && rng.Float64() < s.SlowdownProb {
		factor = 1 + rng.Float64()*(s.SlowdownFactor-1)
	}
	return &Stream{spec: s, rng: rng, factor: factor}
}

// Factor returns the rank's persistent compute slowdown factor (1 for a
// healthy rank), fixed for the stream's lifetime.
func (st *Stream) Factor() float64 { return st.factor }

// Step draws one step's transient perturbations, in step order: the total
// injected stall time and whether the rank suffers a fatal failure this
// step. Call exactly once per simulated step.
func (st *Stream) Step() (stall time.Duration, failed bool) {
	if st.spec.StallRate > 0 {
		for n := poisson(st.rng, st.spec.StallRate); n > 0; n-- {
			stall += time.Duration(st.rng.ExpFloat64() * st.spec.StallMean * float64(time.Second))
		}
	}
	if st.spec.FailProb > 0 {
		failed = st.rng.Float64() < st.spec.FailProb
	}
	return stall, failed
}

// poisson draws from Poisson(lambda) by Knuth's product method — exact,
// allocation-free, and O(lambda) per draw, which the MaxStallRate bound
// keeps cheap.
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// String summarizes the normalized spec for logs and error messages.
func (s Spec) String() string {
	s = s.Normalize()
	if s == (Spec{}) {
		return "perturb{off}"
	}
	var parts []string
	if s.SlowdownProb > 0 {
		parts = append(parts, fmt.Sprintf("slowdown %g@%gx", s.SlowdownProb, s.SlowdownFactor))
	}
	if s.StallRate > 0 {
		parts = append(parts, fmt.Sprintf("stalls %g/step@%gs", s.StallRate, s.StallMean))
	}
	if s.FailProb > 0 {
		parts = append(parts, fmt.Sprintf("fail %g@%gs", s.FailProb, s.RestartCost))
	}
	return "perturb{" + strings.Join(parts, " ") + "}"
}
