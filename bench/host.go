package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host stamps a result with the machine and build it was measured on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Revision is the VCS revision the benchmark was built from, with a
	// "-dirty" suffix for a modified tree; "unknown" outside a repository.
	Revision string `json:"revision"`
}

func hostStamp() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", GoVersion: runtime.Version(), Revision: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Revision != "unknown" {
			h.Revision += "-dirty"
		}
	}
	return h
}
