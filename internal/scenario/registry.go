package scenario

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gpu"
)

// Platform is a named hardware substrate: a GPU architecture bound to the
// cluster topology it runs on. Scenarios reference platforms by name, so a
// new machine is one Register call — no new CLI flags, no new wire fields.
type Platform struct {
	Name string
	Arch gpu.Arch
	Topo comm.Topology
}

// CPUProfile is a named host-noise model (background peaks, GC pauses).
type CPUProfile struct {
	Name  string
	Model gpu.CPUModel
}

// PrepProfile is a named batch-preparation-time model (the Figure 4 tail).
type PrepProfile struct {
	Name  string
	Model dataset.PrepTimeModel
}

// The registries are written only by Register* calls (package init time) and
// read thereafter; aliases map convenience names onto canonical entries.
var (
	platforms       = map[string]Platform{}
	platformAliases = map[string]string{}
	cpuProfiles     = map[string]CPUProfile{}
	prepProfiles    = map[string]PrepProfile{}
)

// RegisterPlatform adds a platform under its canonical name, plus any
// aliases. Duplicate names are a programming error and panic at init.
func RegisterPlatform(p Platform, aliases ...string) {
	if _, dup := platforms[p.Name]; dup {
		panic("scenario: duplicate platform " + p.Name)
	}
	platforms[p.Name] = p
	for _, a := range aliases {
		if _, dup := platformAliases[a]; dup {
			panic("scenario: duplicate platform alias " + a)
		}
		platformAliases[a] = p.Name
	}
}

// RegisterCPUProfile adds a named CPU-noise model.
func RegisterCPUProfile(p CPUProfile) {
	if _, dup := cpuProfiles[p.Name]; dup {
		panic("scenario: duplicate CPU profile " + p.Name)
	}
	cpuProfiles[p.Name] = p
}

// RegisterPrepProfile adds a named preparation-time model.
func RegisterPrepProfile(p PrepProfile) {
	if _, dup := prepProfiles[p.Name]; dup {
		panic("scenario: duplicate prep profile " + p.Name)
	}
	prepProfiles[p.Name] = p
}

// PlatformByName resolves a canonical platform name or alias.
func PlatformByName(name string) (Platform, error) {
	if canon, ok := platformAliases[name]; ok {
		name = canon
	}
	p, ok := platforms[name]
	if !ok {
		return Platform{}, fmt.Errorf("unknown platform %q (want one of %v)", name, PlatformNames())
	}
	return p, nil
}

// CPUProfileByName resolves a CPU profile; "" selects "default".
func CPUProfileByName(name string) (CPUProfile, error) {
	if name == "" {
		name = DefaultCPUProfile
	}
	p, ok := cpuProfiles[name]
	if !ok {
		return CPUProfile{}, fmt.Errorf("unknown CPU profile %q (want one of %v)", name, sortedKeys(cpuProfiles))
	}
	return p, nil
}

// PrepProfileByName resolves a prep-time profile; "" selects "openfold".
func PrepProfileByName(name string) (PrepProfile, error) {
	if name == "" {
		name = DefaultPrepProfile
	}
	p, ok := prepProfiles[name]
	if !ok {
		return PrepProfile{}, fmt.Errorf("unknown prep profile %q (want one of %v)", name, sortedKeys(prepProfiles))
	}
	return p, nil
}

// PlatformNames returns every registered platform name and alias, sorted —
// the vocabulary of the `-arch` axis and the `platform` JSON field.
func PlatformNames() []string {
	names := make([]string, 0, len(platforms)+len(platformAliases))
	for n := range platforms {
		names = append(names, n)
	}
	for a := range platformAliases {
		names = append(names, a)
	}
	sort.Strings(names)
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Default profile names applied by Normalize when a Scenario leaves the
// reference empty.
const (
	DefaultCPUProfile  = "default"
	DefaultPrepProfile = "openfold"
)

// The built-in registry. "H100"/"A100" are aliases kept for the original
// figure-runner vocabulary; both resolve to Eos-topology platforms because
// the paper's measurements (and the seed reproduction) simulate every
// architecture on the Eos-like fabric. "a100-selene" is the same GPU on the
// A100-generation Selene fabric — a scenario axis the paper never plotted.
func init() {
	RegisterPlatform(Platform{Name: "h100-eos", Arch: gpu.H100(), Topo: comm.Eos()}, "H100")
	RegisterPlatform(Platform{Name: "a100-eos", Arch: gpu.A100(), Topo: comm.Eos()}, "A100")
	RegisterPlatform(Platform{Name: "a100-selene", Arch: gpu.A100(), Topo: comm.Selene()})

	RegisterCPUProfile(CPUProfile{Name: DefaultCPUProfile, Model: gpu.DefaultCPUModel()})
	RegisterCPUProfile(CPUProfile{Name: "quiet", Model: gpu.Quiet()})

	RegisterPrepProfile(PrepProfile{Name: DefaultPrepProfile, Model: dataset.DefaultPrepTimeModel()})
	// Preprocessed-dataset what-if: alignments parsed offline, so the heavy
	// tail collapses and only the crop/copy cost remains.
	RegisterPrepProfile(PrepProfile{Name: "precomputed", Model: dataset.PrepTimeModel{
		Base:           0.02,
		PerResidue:     0.0002,
		PerMSARow:      0.00006,
		JitterSigma:    0.2,
		HeavyTailProb:  0.01,
		HeavyTailScale: 3,
	}})
}
