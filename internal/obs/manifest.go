// Package obs is the host-side observability layer: content-addressed run
// manifests, a live tracker of in-flight simulations, and an opt-in HTTP
// introspection server (Prometheus /metrics, /runs, SSE timelines, pprof).
//
// Everything in this package reads the wall clock, allocates freely, and
// serves concurrent HTTP requests — the exact opposites of the model
// packages' determinism contract. The boundary is therefore one-way and
// machine-enforced: obs may import model packages (system, metrics,
// workload) to observe them, but no model package may import obs (the
// nomadlint "obsboundary" rule). Observation never feeds back into
// simulation state; a metrics Snapshot marshals byte-identically whether or
// not a tracker or server is attached.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime/debug"
	"sync"

	"nomad/internal/system"
	"nomad/internal/workload"
)

// Manifest is one run's content address: because same-seed simulations are
// byte-identical, a result is fully determined by (resolved config, workload,
// code version), and Address is the SHA-256 over exactly that triple. Two
// processes given the same config and seed on the same build compute the same
// address without running anything — the key a content-addressed result
// cache (ROADMAP: simulation-as-a-service) stores results under.
//
// Host-only knobs that provably do not change results are excluded from the
// hash: NoFastForward (byte-identity with dormancy on and off is the
// engine's load-bearing contract) and SelfProfile (host profiling never
// touches the snapshot). The telemetry periods are hashed resolved
// (system.Telemetry.Resolved), so a period left 0 and its spelled-out
// default address the same run. Everything else in system.Config
// participates, including knobs like TraceDepth or Timeline that change
// which sections a Snapshot carries.
type Manifest struct {
	// Address is "sha256:<hex>" over the canonical config/workload/build
	// JSON (see Canonical).
	Address string `json:"address"`
	// Scheme/Workload/Seed duplicate the config fields a human wants first.
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Build stamps the code version the address is relative to.
	Build BuildStamp `json:"build"`

	canonical []byte
}

// BuildStamp identifies the module build a manifest was computed by, from
// runtime/debug.ReadBuildInfo. Test binaries and plain `go build` outside a
// VCS checkout have empty revision fields; the stamp (and so the address)
// is still stable within one build.
type BuildStamp struct {
	Module  string `json:"module,omitempty"`
	Version string `json:"version,omitempty"`
	// Revision/Time/Modified are the vcs.* build settings when present.
	// A modified ("dirty") build hashes like its base revision; the flag
	// is recorded so such addresses are recognizably weaker.
	Revision string `json:"vcs_revision,omitempty"`
	Time     string `json:"vcs_time,omitempty"`
	Modified bool   `json:"vcs_modified,omitempty"`
	// GoVersion is informational only and excluded from the address:
	// determinism is a property of the model code, not the toolchain.
	GoVersion string `json:"go_version,omitempty"`
}

// hashedStamp is the BuildStamp subset that participates in the address.
type hashedStamp struct {
	Module   string `json:"module,omitempty"`
	Version  string `json:"version,omitempty"`
	Revision string `json:"vcs_revision,omitempty"`
	Modified bool   `json:"vcs_modified,omitempty"`
}

// canonicalDoc is the exact document the address hashes.
type canonicalDoc struct {
	Config   system.Config `json:"config"`
	Workload workload.Spec `json:"workload"`
	Build    hashedStamp   `json:"build"`
}

var (
	stampOnce sync.Once
	stamp     BuildStamp
)

// buildStamp reads (once) and returns the process build stamp.
func buildStamp() BuildStamp {
	stampOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		stamp.Module = bi.Main.Path
		stamp.Version = bi.Main.Version
		stamp.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				stamp.Revision = s.Value
			case "vcs.time":
				stamp.Time = s.Value
			case "vcs.modified":
				stamp.Modified = s.Value == "true"
			}
		}
	})
	return stamp
}

// NewManifest computes the manifest of one run from its resolved
// configuration and workload. It never runs a simulation; call it before,
// after, or instead of one.
func NewManifest(cfg system.Config, spec workload.Spec) *Manifest {
	// Resolve the default periods and zero the result-neutral knobs so
	// equivalent runs collide on purpose: fast-forward on/off and profiling
	// on/off produce byte-identical snapshots.
	cfg.Telemetry = cfg.Telemetry.Resolved()
	cfg.NoFastForward = false
	cfg.SelfProfile = false
	st := buildStamp()
	doc, err := json.Marshal(canonicalDoc{
		Config:   cfg,
		Workload: spec,
		Build:    hashedStamp{Module: st.Module, Version: st.Version, Revision: st.Revision, Modified: st.Modified},
	})
	if err != nil {
		// system.Config and workload.Spec are plain data; Marshal cannot
		// fail on them. Guard anyway so a future unmarshalable field shows
		// up as a distinctive address rather than a panic.
		doc = []byte("unmarshalable:" + err.Error())
	}
	sum := sha256.Sum256(doc)
	return &Manifest{
		Address:   "sha256:" + hex.EncodeToString(sum[:]),
		Scheme:    string(cfg.Scheme),
		Workload:  spec.Abbr,
		Seed:      cfg.Seed,
		Build:     st,
		canonical: doc,
	}
}

// Canonical returns the exact JSON document Address is the SHA-256 of
// (debugging, cache implementations).
func (m *Manifest) Canonical() []byte {
	if m == nil {
		return nil
	}
	return m.canonical
}
