package lint

import (
	"fmt"
	"go/token"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// RuleNames lists every rule the analyzer implements, in report order.
// "directive" is the meta-rule covering malformed //nomadlint:ignore
// comments and is always active.
var RuleNames = []string{
	"wallclock",
	"maporder",
	"concurrency",
	"metricname",
	"floatclock",
	"poolalloc",
	"obsboundary",
	"ownership",
	"statecover",
	"directive",
}

// Config scopes the determinism contract.
type Config struct {
	// ModelPackages are import-path suffixes (relative to the module path)
	// of packages holding simulation state, where the full contract
	// applies. A package matches when its path equals modPath+"/"+entry.
	ModelPackages []string
	// AllowFiles exempts individual files (slash-separated path suffixes,
	// e.g. "internal/metrics/hostprof.go") from the wallclock rule: these
	// knowingly read host state and are documented as non-deterministic.
	AllowFiles []string
	// ConcurrencyAllowFiles exempts individual files (same suffix matching
	// as AllowFiles) from the concurrency rule; the goroutine ban stays in
	// force for every other model file. The repository's own contract
	// exempts none: the simulator is single-threaded.
	ConcurrencyAllowFiles []string
	// Rules restricts the run to a subset of RuleNames; empty means all.
	Rules []string
	// MetricInventory, when non-nil, is the committed inventory the
	// collected metric registrations are compared against (one
	// "namespace<TAB>pattern" per line). Nil skips the comparison.
	MetricInventory []string
	// OwnershipPackages are the import-path suffixes where the
	// interprocedural ownership and state-coverage rules apply: the model
	// packages holding domain-owned simulation state (internal/metrics is model
	// scope for the syntactic rules but hosts the observability machinery,
	// so it is not ownership scope). Empty disables both rules.
	OwnershipPackages []string
	// OwnershipInventory, when non-nil, is the committed ownership
	// inventory the live owner/port annotations are compared against. Nil
	// skips the comparison.
	OwnershipInventory []string
}

// DefaultConfig returns the contract for this repository: every package
// that holds simulation state is a model package; the host-profiling file
// is the single wallclock exemption.
func DefaultConfig() Config {
	return Config{
		ModelPackages: []string{
			"internal/sim",
			"internal/mem",
			"internal/dram",
			"internal/cache",
			"internal/core",
			"internal/cpu",
			"internal/osmem",
			"internal/schemes",
			"internal/tlb",
			"internal/replacement",
			"internal/workload",
			"internal/system",
			"internal/metrics",
		},
		AllowFiles: []string{"internal/metrics/hostprof.go"},
		OwnershipPackages: []string{
			"internal/sim",
			"internal/mem",
			"internal/dram",
			"internal/cache",
			"internal/core",
			"internal/cpu",
			"internal/osmem",
			"internal/schemes",
			"internal/tlb",
			"internal/replacement",
			"internal/workload",
			"internal/system",
		},
	}
}

// ruleEnabled reports whether the named rule runs under this config.
func (c *Config) ruleEnabled(name string) bool {
	if len(c.Rules) == 0 {
		return true
	}
	for _, r := range c.Rules {
		if r == name {
			return true
		}
	}
	return false
}

// isModel reports whether the package at import path ip is in contract
// scope.
func (c *Config) isModel(modPath, ip string) bool {
	for _, m := range c.ModelPackages {
		if ip == modPath+"/"+m || ip == m {
			return true
		}
	}
	return false
}

// isOwnership reports whether the package at import path ip is in
// ownership-analysis scope.
func (c *Config) isOwnership(modPath, ip string) bool {
	for _, m := range c.OwnershipPackages {
		if ip == modPath+"/"+m || ip == m {
			return true
		}
	}
	return false
}

// fileAllowed reports whether filename is exempt from wallclock.
func (c *Config) fileAllowed(filename string) bool {
	return suffixMatch(filename, c.AllowFiles)
}

// concurrencyAllowed reports whether filename is exempt from the
// concurrency rule.
func (c *Config) concurrencyAllowed(filename string) bool {
	return suffixMatch(filename, c.ConcurrencyAllowFiles)
}

// suffixMatch reports whether filename ends in one of the slash-separated
// path suffixes.
func suffixMatch(filename string, suffixes []string) bool {
	f := path.Clean(strings.ReplaceAll(filename, "\\", "/"))
	for _, a := range suffixes {
		if strings.HasSuffix(f, "/"+a) || f == a {
			return true
		}
	}
	return false
}

// Run executes the configured rules over a loaded module and returns the
// surviving diagnostics sorted by position. Type errors are reported first:
// a module that does not compile cannot be certified.
func Run(mod *Module, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, p := range mod.Sorted() {
		for _, err := range p.TypeErrors {
			diags = append(diags, Diagnostic{
				Rule:    "typecheck",
				Message: err.Error(),
			})
		}
	}

	ign := collectIgnores(mod)
	diags = append(diags, ign.malformed...)

	if cfg.ruleEnabled("wallclock") {
		diags = append(diags, checkWallclock(mod, &cfg)...)
	}
	if cfg.ruleEnabled("maporder") {
		diags = append(diags, checkMapOrder(mod, &cfg)...)
	}
	if cfg.ruleEnabled("concurrency") {
		diags = append(diags, checkConcurrency(mod, &cfg)...)
	}
	if cfg.ruleEnabled("metricname") {
		diags = append(diags, checkMetricNames(mod, &cfg)...)
	}
	if cfg.ruleEnabled("floatclock") {
		diags = append(diags, checkFloatClock(mod, &cfg)...)
	}
	if cfg.ruleEnabled("poolalloc") {
		diags = append(diags, checkPoolAlloc(mod, &cfg)...)
	}
	if cfg.ruleEnabled("obsboundary") {
		diags = append(diags, checkObsBoundary(mod, &cfg)...)
	}
	// The interprocedural rules share one call graph and access index;
	// both are gated on ownership scope being configured.
	if len(cfg.OwnershipPackages) > 0 && (cfg.ruleEnabled("ownership") || cfg.ruleEnabled("statecover")) {
		ann := parseAnnotations(mod)
		for _, d := range ann.diags {
			if cfg.ruleEnabled(d.Rule) {
				diags = append(diags, d)
			}
		}
		cg := buildCallGraph(mod, ann)
		acc := collectAccesses(mod, cg)
		if cfg.ruleEnabled("ownership") {
			diags = append(diags, checkOwnership(mod, &cfg, ann, cg, acc)...)
		}
		if cfg.ruleEnabled("statecover") {
			diags = append(diags, checkStateCover(mod, &cfg, ann, cg, acc)...)
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if d.Rule != "directive" && ign.suppressed(d) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Rule < kept[j].Rule
	})
	return kept
}
