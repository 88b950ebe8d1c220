// Package scenario is the canonical scenario layer: one typed, validated,
// JSON-round-trippable descriptor of "what to simulate" shared by every
// layer of the system. CLI flags parse into a Scenario, the sweep grid
// lowers its points to Scenarios, the HTTP service accepts Scenario JSON on
// the wire (`POST /v1/jobs`), and the memo cache and the persistent result
// store are keyed by the Scenario's versioned canonical fingerprint — so
// "the same scenario" means exactly one thing from flag to store key.
//
// Hardware is referenced by name through a registry of profiles (platforms
// such as "h100-eos", CPU-noise and prep-time models), so new substrates are
// a Register call, not a new flag or struct field.
//
// # Fingerprint compatibility contract
//
// Fingerprint returns a version prefix + a hash of Canonical(), an explicit
// field-by-field encoding of the fully resolved scenario (profile names
// resolved to their numeric contents, defaults applied). Two generations
// are current at once: unperturbed scenarios keep the exact "v3:" encoding
// (so pre-perturbation stores keep serving healthy cells), while scenarios
// with a live Perturb block append its canonical encoding and mint "v4:"
// keys — a v3 key can never satisfy a v4 lookup, the prefixes differ. The
// contract:
//
//   - Two Scenarios with equal Fingerprints simulate identically: every
//     input of cluster.Simulate is either encoded or a pure derivation of
//     encoded fields.
//   - Adding, removing, renaming or reordering any field that reaches the
//     encoding REQUIRES bumping Version: old stores then read as legacy (kept
//     on disk, surfaced in store stats, never silently matched) instead of
//     returning stale results for a key that now means something else.
//   - Editing a registered profile's numbers is a semantic change to every
//     fingerprint that resolves it; the golden-file test pins the encodings
//     so both kinds of drift fail CI instead of silently orphaning stores.
//
// The golden corpus lives in testdata/fingerprints.golden; regenerate with
// `go test ./internal/scenario -run Golden -update` after a deliberate bump.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/workload"
)

// Scenario is the canonical descriptor of one simulation: cluster geometry,
// named hardware profiles, the kernel-census optimization set, data-pipeline
// semantics, an optional barrier ablation, and the seed/steps that make it
// reproducible. The zero value of every optional field means "simulator
// default" (see Normalize); the JSON form is the service wire format.
type Scenario struct {
	// Platform names the GPU architecture + cluster topology pair in the
	// profile registry ("h100-eos", "a100-selene", or the aliases "H100",
	// "A100"). Required.
	Platform string `json:"platform"`
	// CPU names the host-noise profile ("" = "default").
	CPU string `json:"cpu,omitempty"`
	// Prep names the batch-preparation-time profile ("" = "openfold").
	Prep string `json:"prep,omitempty"`

	// Ranks is the GPU count; DAP the Dynamic Axial Parallelism degree.
	// Ranks must be a positive multiple of DAP.
	Ranks int `json:"ranks"`
	DAP   int `json:"dap"`

	// Census selects which ScaleFold optimizations transform the kernel
	// census (fused kernels, batched GEMM, bf16, DAP width, ...).
	Census workload.Options `json:"census"`

	// Step semantics: CUDA-graph capture, §3.2 non-blocking loader, Python
	// GC disabled, dataloader worker count and prefetch depth (0 = default).
	CUDAGraph   bool `json:"cuda_graph,omitempty"`
	NonBlocking bool `json:"non_blocking,omitempty"`
	DisableGC   bool `json:"disable_gc,omitempty"`
	Workers     int  `json:"workers,omitempty"`
	Prefetch    int  `json:"prefetch,omitempty"`

	// Ablation idealizes one Figure 3 scalability barrier ("" = "none");
	// see Ablations for the recognized names.
	Ablation string `json:"ablation,omitempty"`

	// Seed drives every stochastic component; Steps is the number of
	// simulated steps to average over (0 = default).
	Seed  int64 `json:"seed"`
	Steps int   `json:"steps,omitempty"`

	// SimWorkers bounds the goroutines one simulation shards its per-rank
	// work across (<= 1: serial). Pure execution detail: the simulator
	// returns bit-identical Results for every value, so this field is
	// deliberately EXCLUDED from Canonical and the fingerprint — two
	// scenarios differing only here are the same scenario, the same memo
	// entry and the same store record.
	SimWorkers int `json:"sim_workers,omitempty"`

	// Perturb injects unhealthy-cluster noise — persistent per-rank
	// stragglers, Poisson transient stalls, rank failures with a
	// checkpoint-restart cost (see package perturb). nil (or a spec that
	// normalizes to zero — Normalize folds the latter to nil) means a
	// healthy cluster and keeps the scenario on the unperturbed "v3:"
	// fingerprint generation; a non-trivial spec is identity-bearing and
	// moves the fingerprint to the "v4:" generation.
	Perturb *perturb.Spec `json:"perturb,omitempty"`

	// Mode selects how the scenario's Result is produced: "" or "exact"
	// runs cluster.Simulate (the default; Normalize folds "exact" to ""),
	// "analytic" serves the closed-form estimate from package analytic, and
	// "auto" lets the sweep layer pick — analytic unless the estimate's
	// error bound straddles a decision boundary, in which case the cell
	// escalates to exact. Exact scenarios keep their v3/v4 encoding and
	// keys byte-identical; a non-exact mode is identity-bearing (an
	// estimate must never satisfy an exact lookup) and moves the
	// fingerprint to the "v5:" generation.
	Mode string `json:"mode,omitempty"`
}

// Recognized Scenario.Mode values. The zero value ("") is exact.
const (
	ModeExact    = "exact"
	ModeAnalytic = "analytic"
	ModeAuto     = "auto"
)

// Modes lists the recognized Scenario.Mode spellings (the zero value ""
// is also accepted and means exact).
var Modes = []string{ModeExact, ModeAnalytic, ModeAuto}

// ValidMode reports whether name is a recognized resolution mode.
func ValidMode(name string) bool {
	switch name {
	case "", ModeExact, ModeAnalytic, ModeAuto:
		return true
	}
	return false
}

// Ablations lists the recognized Scenario.Ablation values: "none" plus one
// name per Figure 3 barrier-idealization switch.
var Ablations = []string{
	"none",            // measured configuration, nothing idealized
	"zero-launch",     // CPU launch overhead eliminated
	"perfect-balance", // ranks synchronized before every collective
	"zero-serial",     // serial modules parallelized away
	"flat-efficiency", // kernels keep full efficiency at any size
	"zero-comm",       // DAP collective payloads are free
}

// ValidAblation reports whether name is a recognized ablation.
func ValidAblation(name string) bool {
	if name == "" {
		return true
	}
	for _, a := range Ablations {
		if a == name {
			return true
		}
	}
	return false
}

// Simulator defaults applied by Normalize, the setup every figure is pinned
// with; encoding them canonically makes Scenario{Workers: 0} and
// Scenario{Workers: 10} the same scenario, as they simulate identically.
const (
	defaultWorkers  = 10
	defaultPrefetch = 32
	defaultSteps    = 6
)

// Normalize resolves the scenario to its canonical form: platform aliases
// become canonical names, empty profile references and tunables take their
// defaults, and "" ablation becomes "none". Two Scenarios that normalize
// equal are the same scenario (same fingerprint, same Results). Returns an
// error for references the registry cannot resolve.
func (s Scenario) Normalize() (Scenario, error) {
	p, err := PlatformByName(s.Platform)
	if err != nil {
		return Scenario{}, err
	}
	s.Platform = p.Name
	cpu, err := CPUProfileByName(s.CPU)
	if err != nil {
		return Scenario{}, err
	}
	s.CPU = cpu.Name
	prep, err := PrepProfileByName(s.Prep)
	if err != nil {
		return Scenario{}, err
	}
	s.Prep = prep.Name
	if s.Ablation == "" {
		s.Ablation = "none"
	}
	if s.Census.DAP == 0 {
		// An unset census DAP follows the geometry: the census must shard
		// the kernels the way the plan distributes them.
		s.Census.DAP = s.DAP
	}
	if s.Workers < 1 {
		s.Workers = defaultWorkers
	}
	if s.Prefetch < 1 {
		s.Prefetch = defaultPrefetch
	}
	if s.Steps < 1 {
		s.Steps = defaultSteps
	}
	if s.Perturb != nil {
		// Fold no-op perturbation components to zero; a spec that
		// normalizes to nothing IS the healthy cluster, so the scenario
		// drops it and keeps its unperturbed v3 identity.
		p := s.Perturb.Normalize()
		if p.IsZero() {
			s.Perturb = nil
		} else {
			s.Perturb = &p
		}
	}
	if s.Mode == ModeExact {
		// "exact" IS the zero value: folding it keeps the explicit spelling
		// on the same v3/v4 encoding and key as an unset mode, the same
		// trick that keeps a no-op perturb on v3.
		s.Mode = ""
	}
	if !ValidMode(s.Mode) {
		return Scenario{}, fmt.Errorf("scenario: unknown mode %q (want one of %v)", s.Mode, Modes)
	}
	return s, nil
}

// Validate rejects scenarios that cannot be simulated: unknown profile or
// ablation names, non-positive geometry, rank counts that cannot host the
// DAP degree, and a census DAP that contradicts the geometry. The CLI turns
// the error into exit status 2 and the HTTP service into a 400 — nothing
// downstream of a validated Scenario panics on its content.
func (s Scenario) Validate() error {
	if _, err := PlatformByName(s.Platform); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, err := CPUProfileByName(s.CPU); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, err := PrepProfileByName(s.Prep); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if !ValidAblation(s.Ablation) {
		return fmt.Errorf("scenario: unknown ablation %q (want one of %v)", s.Ablation, Ablations)
	}
	if s.Ranks < 1 || s.DAP < 1 {
		return fmt.Errorf("scenario: geometry must be positive, got ranks=%d dap=%d", s.Ranks, s.DAP)
	}
	if s.Ranks%s.DAP != 0 {
		return fmt.Errorf("scenario: %d ranks cannot host DAP-%d", s.Ranks, s.DAP)
	}
	if s.Census.DAP != 0 && s.Census.DAP != s.DAP {
		return fmt.Errorf("scenario: census DAP %d contradicts geometry DAP %d", s.Census.DAP, s.DAP)
	}
	if s.Workers < 0 || s.Prefetch < 0 || s.Steps < 0 || s.SimWorkers < 0 {
		return fmt.Errorf("scenario: workers/prefetch/steps/sim_workers must be >= 0")
	}
	if s.Census.Recycles < 0 {
		return fmt.Errorf("scenario: census recycles must be >= 0")
	}
	if !ValidMode(s.Mode) {
		return fmt.Errorf("scenario: unknown mode %q (want one of %v)", s.Mode, Modes)
	}
	if s.Perturb != nil {
		if err := s.Perturb.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

// Options lowers the scenario to the simulator's input: profile references
// resolve to their numeric models, defaults apply, and the ablation switch
// flips its cluster.Options flag. The error reports what Validate would —
// callers that validated already may treat it as impossible.
func (s Scenario) Options() (cluster.Options, error) {
	if err := s.Validate(); err != nil {
		return cluster.Options{}, err
	}
	n, err := s.Normalize()
	if err != nil {
		return cluster.Options{}, err
	}
	p, _ := PlatformByName(n.Platform)
	cpu, _ := CPUProfileByName(n.CPU)
	prep, _ := PrepProfileByName(n.Prep)
	o := cluster.Options{
		Arch:                p.Arch,
		Topo:                p.Topo,
		CPU:                 cpu.Model,
		CUDAGraph:           n.CUDAGraph,
		NonBlockingPipeline: n.NonBlocking,
		Workers:             n.Workers,
		Prefetch:            n.Prefetch,
		PrepModel:           prep.Model,
		Seed:                n.Seed,
		Steps:               n.Steps,
		SimWorkers:          n.SimWorkers,
	}
	if n.Perturb != nil {
		o.Perturb = *n.Perturb
	}
	if n.DisableGC {
		o.CPU.GCEnabled = false
	}
	switch n.Ablation {
	case "none":
	case "zero-launch":
		o.ZeroLaunchOverhead = true
	case "perfect-balance":
		o.PerfectBalance = true
	case "zero-serial":
		o.ZeroSerial = true
	case "flat-efficiency":
		o.FlatEfficiency = true
	case "zero-comm":
		o.ZeroCommVolume = true
	}
	return o, nil
}

// ParseJSON decodes one Scenario from strict JSON: unknown fields and
// trailing data are errors, so a typo'd field name cannot silently select a
// default scenario and concatenated documents cannot silently drop cells.
func ParseJSON(data []byte) (Scenario, error) {
	var s Scenario
	if err := strictDecode(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// ParseJSONList decodes a JSON array of Scenarios (the `-scenarios` file
// format and the wire form of an explicit-scenario job), with the same
// strictness as ParseJSON.
func ParseJSONList(data []byte) ([]Scenario, error) {
	var list []Scenario
	if err := strictDecode(data, &list); err != nil {
		return nil, fmt.Errorf("scenarios: %w", err)
	}
	return list, nil
}

func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the first JSON document")
	}
	return nil
}
