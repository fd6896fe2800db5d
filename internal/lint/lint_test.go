package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Fake dependency packages for overlay tests: bodyless declarations
// type-check fine and keep the tests independent of stdlib sources.
var fakeStd = map[string]map[string]string{
	"time": {"time.go": `package time
type Time struct{}
func (t Time) Sub(u Time) Duration
func (t Time) IsZero() bool
type Duration int64
const (
	Nanosecond  Duration = 1
	Millisecond Duration = 1e6
	Second      Duration = 1e9
)
func Now() Time
func Since(t Time) Duration
func Sleep(d Duration)
`},
	"os": {"os.go": `package os
func Getenv(key string) string
func LookupEnv(key string) (string, bool)
func Environ() []string
`},
	"math/rand": {"rand.go": `package rand
func Intn(n int) int
func Int63() int64
`},
	"fmt": {"fmt.go": `package fmt
func Sprintf(format string, a ...any) string
func Println(a ...any) (int, error)
`},
	"sort": {"sort.go": `package sort
func Strings(x []string)
func Ints(x []int)
`},
	"m/internal/metrics": {"metrics.go": `package metrics
type Registry struct{}
type Histogram struct{}
func (r *Registry) Counter(name string) *Histogram
func (r *Registry) CounterFunc(name string, fn func() uint64)
func (r *Registry) GaugeFunc(name string, fn func() float64)
func (r *Registry) Histogram(name string) *Histogram
func (r *Registry) SeriesFunc(name string, fn func(now uint64) float64)
func (r *Registry) IntervalFunc(name string, prime func(now uint64), sample func(now uint64) float64)
`},
}

// snippetConfig treats m/model as the single model package.
func snippetConfig() Config {
	return Config{ModelPackages: []string{"model"}}
}

// lintSnippet type-checks src as package m/model plus any extra packages and
// runs the configured rules.
func lintSnippet(t *testing.T, src string, cfg Config, extra map[string]map[string]string) []Diagnostic {
	t.Helper()
	overlay := map[string]map[string]string{
		"m/model": {"m/model/model.go": src},
	}
	for ip, files := range fakeStd {
		overlay[ip] = files
	}
	for ip, files := range extra {
		overlay[ip] = files
	}
	mod, err := LoadOverlay("m", overlay)
	if err != nil {
		t.Fatalf("LoadOverlay: %v", err)
	}
	for _, p := range mod.Sorted() {
		for _, e := range p.TypeErrors {
			t.Fatalf("snippet does not type-check: %v", e)
		}
	}
	return Run(mod, cfg)
}

// rulesOf extracts the rule of each diagnostic, in order.
func rulesOf(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Rule
	}
	return out
}

// wantDiags asserts the exact sequence of (rule, line) pairs.
func wantDiags(t *testing.T, diags []Diagnostic, want ...[2]any) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(diags), diags, len(want))
	}
	for i, w := range want {
		if diags[i].Rule != w[0].(string) || diags[i].Pos.Line != w[1].(int) {
			t.Errorf("diag %d = %s at line %d, want %s at line %d (%s)",
				i, diags[i].Rule, diags[i].Pos.Line, w[0], w[1], diags[i].Message)
		}
	}
}

var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

// loadRepo type-checks the module that ships the linter once per test
// binary and hands every whole-module test the same Module: Run,
// InventoryLines and OwnershipInventoryLines only read it, and one load
// costs seconds. It skips under -short (the load type-checks the whole
// module, including stdlib imports from source).
func loadRepo(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module lint is not a -short test")
	}
	repoOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err == nil {
			_, err = os.Stat(filepath.Join(root, "go.mod"))
		}
		if err != nil {
			repoErr = fmt.Errorf("module root not found: %w", err)
			return
		}
		repoMod, repoErr = LoadDir(root)
	})
	if repoErr != nil {
		t.Fatalf("LoadDir: %v", repoErr)
	}
	return repoMod
}

// TestRepoIsClean is the meta-test: nomadlint must exit clean on the module
// that ships it, with the committed inventory.
func TestRepoIsClean(t *testing.T) {
	mod := loadRepo(t)
	cfg := DefaultConfig()
	cfg.MetricInventory = EmbeddedInventory()
	cfg.OwnershipInventory = EmbeddedOwnershipInventory()
	diags := Run(mod, cfg)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestInventoryMatchesTree guards the committed inventory file itself: the
// lines collected from the live tree must equal the embedded file.
func TestInventoryMatchesTree(t *testing.T) {
	got := strings.Join(InventoryLines(loadRepo(t)), "\n")
	want := strings.Join(EmbeddedInventory(), "\n")
	if got != want {
		t.Errorf("inventory drift; run `go run ./cmd/nomadlint -write-inventory ./...`\ncollected:\n%s\nembedded:\n%s", got, want)
	}
}

// TestOwnershipInventoryMatchesTree is the same freshness guard for the
// ownership inventory: the owner/port lines collected from the live tree
// must equal the embedded ownership_inventory.txt.
func TestOwnershipInventoryMatchesTree(t *testing.T) {
	got := strings.Join(OwnershipInventoryLines(loadRepo(t)), "\n")
	want := strings.Join(EmbeddedOwnershipInventory(), "\n")
	if got != want {
		t.Errorf("ownership inventory drift; run `go run ./cmd/nomadlint -write-inventory ./...`\ncollected:\n%s\nembedded:\n%s", got, want)
	}
}
