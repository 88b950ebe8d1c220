package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// Version is the fingerprint encoding version of unperturbed scenarios.
// Bump it (and update the golden corpus) whenever Canonical's field set,
// order or formatting changes; see the package comment for the
// compatibility contract. The v1/v2 generations were the pre-scenario
// `fmt.Sprintf("%+v")` struct dumps, which are recognizably prefix-less and
// therefore read as legacy keys.
const Version = 3

// PerturbVersion is the encoding version of scenarios carrying a
// perturbation block. The v4 generation EXTENDS v3 rather than replacing
// it: an unperturbed scenario still encodes (and fingerprints)
// byte-identically to v3, so pre-perturbation stores keep serving healthy
// cells, while any scenario whose Perturb survives normalization encodes
// the extra ";perturb{...}" block and mints a "v4:" key. A v3 key can
// therefore never satisfy a v4 lookup (and vice versa): the prefixes — not
// just the hashes — differ.
const PerturbVersion = 4

// AnalyticVersion is the encoding version of scenarios resolved by a
// non-exact Mode ("analytic" or "auto"). Like v4 it EXTENDS the earlier
// generations rather than replacing them: exact-mode scenarios (Mode "" or
// "exact", which Normalize folds to "") still encode and fingerprint
// byte-identically to v3/v4, so every pre-existing store keeps serving,
// while a non-exact mode appends a ";mode=..." block and mints a "v5:" key.
// An analytic estimate can therefore never satisfy an exact lookup (or
// vice versa): the prefixes — not just the hashes — differ.
const AnalyticVersion = 5

// keyPrefix tags unperturbed-generation fingerprints; perturbPrefix tags
// scenarios with a live perturbation block; analyticPrefix tags scenarios
// resolved by a non-exact mode.
var (
	keyPrefix      = fmt.Sprintf("v%d:", Version)
	perturbPrefix  = fmt.Sprintf("v%d:", PerturbVersion)
	analyticPrefix = fmt.Sprintf("v%d:", AnalyticVersion)
)

// IsCurrentKey reports whether a memo/store key was minted by a current
// encoding generation (v3 for unperturbed exact scenarios, v4 for perturbed
// exact ones, v5 for analytic/auto-mode ones). Keys from older generations
// are legacy: kept in the store's append-only log, counted in store
// statistics, never matched by lookups.
func IsCurrentKey(key string) bool {
	return strings.HasPrefix(key, keyPrefix) ||
		strings.HasPrefix(key, perturbPrefix) ||
		strings.HasPrefix(key, analyticPrefix)
}

// Fingerprint returns the versioned canonical identity of the scenario:
// "v3:" ("v4:" when a perturbation block is present, "v5:" when the
// resolution mode is analytic or auto) + a 128-bit hash of Canonical(). It is the memoization key of the sweep engine and the record
// key of the persistent result store. Scenarios that normalize equal share
// a fingerprint; any semantic difference — including the numeric contents
// of the profiles the scenario references — produces a different one.
// Unresolvable scenarios are fingerprinted too (from their raw fields) so
// callers without an error path stay total, but such keys never reach a
// store: validation rejects the scenario first.
func (s Scenario) Fingerprint() string {
	if n, err := s.Normalize(); err == nil {
		s = n
	}
	prefix := keyPrefix
	if s.Perturb != nil && !s.Perturb.IsZero() {
		prefix = perturbPrefix
	}
	if s.Mode != "" && s.Mode != ModeExact {
		// Non-exact modes outrank the perturb generation: an estimate of a
		// perturbed cell is still an estimate, never an exact record.
		prefix = analyticPrefix
	}
	sum := sha256.Sum256([]byte(s.Canonical()))
	return prefix + hex.EncodeToString(sum[:16])
}

// Canonical returns the explicit field-by-field encoding of the resolved
// scenario that Fingerprint hashes. Every cluster.Simulate input appears:
// profile references are expanded to their numeric contents (so editing a
// registered profile re-keys the scenarios using it), defaults are applied,
// floats use the shortest round-trip formatting and durations integer
// nanoseconds. The format is stable by contract and pinned by the golden
// test; it is also readable on purpose — debugging a store is `grep`, not a
// hash-reversal exercise.
//
// SimWorkers is deliberately NOT encoded: it only shards the simulator's
// work across goroutines and cannot change a Result bit, so it is an
// execution detail outside the scenario's identity (the exclusion is pinned
// by TestFingerprintExcludesSimWorkers).
func (s Scenario) Canonical() string {
	if n, err := s.Normalize(); err == nil {
		s = n
	}
	var b strings.Builder
	b.WriteString("platform=")
	b.WriteString(s.Platform)
	if p, err := PlatformByName(s.Platform); err == nil {
		canonArch(&b, p.Arch)
		canonTopo(&b, p.Topo)
	}
	b.WriteString(";cpu=")
	b.WriteString(s.CPU)
	if c, err := CPUProfileByName(s.CPU); err == nil {
		canonCPU(&b, c.Model)
	}
	b.WriteString(";prep=")
	b.WriteString(s.Prep)
	if p, err := PrepProfileByName(s.Prep); err == nil {
		canonPrep(&b, p.Model)
	}
	fmt.Fprintf(&b, ";ranks=%d;dap=%d;", s.Ranks, s.DAP)
	b.WriteString(CanonicalCensus(s.Census))
	fmt.Fprintf(&b, ";graph=%s;nonblock=%s;gc_off=%s;workers=%d;prefetch=%d;ablate=%s;seed=%d;steps=%d",
		canonBool(s.CUDAGraph), canonBool(s.NonBlocking), canonBool(s.DisableGC),
		s.Workers, s.Prefetch, s.Ablation, s.Seed, s.Steps)
	// The perturbation block is appended ONLY when live (the v4
	// generation); unperturbed scenarios keep the exact v3 encoding, so
	// their fingerprints — and every pre-perturbation store key — are
	// untouched by this layer's existence.
	if s.Perturb != nil && !s.Perturb.IsZero() {
		b.WriteString(";")
		b.WriteString(s.Perturb.Canonical())
	}
	// The mode block is appended ONLY for non-exact modes (the v5
	// generation); exact scenarios keep the exact v3/v4 encoding, so their
	// fingerprints — and every pre-existing store key — are untouched by
	// the analytic layer's existence.
	if s.Mode != "" && s.Mode != ModeExact {
		b.WriteString(";mode=")
		b.WriteString(s.Mode)
	}
	return b.String()
}

// CanonicalCensus is the explicit encoding of the kernel-census options
// inside Canonical. It encodes exactly the ten workload.Options fields, so
// two census options encode equal exactly when they are equal values — which
// is why the census memo, workload.Full, can key by the value itself.
func CanonicalCensus(o workload.Options) string {
	return fmt.Sprintf(
		"census{fused_mha=%s;fused_ln=%s;fused_adam_swa=%s;batched_gemm=%s;torch_compile=%s;bf16=%s;grad_ckpt=%s;recycles=%d;dap=%d;bucketed_clip=%s}",
		canonBool(o.FusedMHA), canonBool(o.FusedLN), canonBool(o.FusedAdamSWA),
		canonBool(o.BatchedGEMM), canonBool(o.TorchCompile), canonBool(o.BF16),
		canonBool(o.GradCheckpoint), o.Recycles, o.DAP, canonBool(o.BucketedClip))
}

func canonArch(b *strings.Builder, a gpu.Arch) {
	fmt.Fprintf(b, "{arch{name=%s;flops=%s;bw=%s;launch=%s;replay=%s;fixed=%s;mem_half=%s;math_half=%s}",
		a.Name, canonFloat(a.PeakFLOPS), canonFloat(a.PeakBW),
		canonDur(a.LaunchOverhead), canonDur(a.GraphReplayOverhead), canonDur(a.KernelFixed),
		canonFloat(a.MemHalfSat), canonFloat(a.MathHalfSat))
}

func canonTopo(b *strings.Builder, t comm.Topology) {
	fmt.Fprintf(b, ";topo{intra_bw=%s;inter_bw=%s;intra_lat=%s;inter_lat=%s;gpus_per_node=%d}}",
		canonFloat(t.IntraBW), canonFloat(t.InterBW),
		canonDur(t.IntraLat), canonDur(t.InterLat), t.GPUsPerNode)
}

func canonCPU(b *strings.Builder, c gpu.CPUModel) {
	fmt.Fprintf(b, "{peak_prob=%s;peak_stretch=%s;gc=%s;gc_pause=%s;gc_interval=%d;straggler_prob=%s;straggler_mean=%s}",
		canonFloat(c.PeakProb), canonFloat(c.PeakStretch), canonBool(c.GCEnabled),
		canonDur(c.GCPause), c.GCInterval, canonFloat(c.StragglerProb), canonDur(c.StragglerMean))
}

func canonPrep(b *strings.Builder, m dataset.PrepTimeModel) {
	fmt.Fprintf(b, "{base=%s;per_residue=%s;per_msa_row=%s;jitter=%s;tail_prob=%s;tail_scale=%s}",
		canonFloat(m.Base), canonFloat(m.PerResidue), canonFloat(m.PerMSARow),
		canonFloat(m.JitterSigma), canonFloat(m.HeavyTailProb), canonFloat(m.HeavyTailScale))
}

func canonBool(v bool) string {
	if v {
		return "t"
	}
	return "f"
}

func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func canonDur(d time.Duration) string { return strconv.FormatInt(int64(d), 10) }
