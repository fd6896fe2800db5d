package lint

import "testing"

func TestConcurrencyBad(t *testing.T) {
	diags := lintSnippet(t, `package model

func spawn(work func()) {
	go work() // line 4: goroutine
}

func pipe(c chan int) int { // line 7: chan type
	c <- 1 // line 8: send
	select { // line 9: select
	default:
	}
	v := <-c // line 12: receive
	close(c) // line 13: close
	return v
}
`, snippetConfig(), nil)
	wantDiags(t, diags,
		[2]any{"concurrency", 4},
		[2]any{"concurrency", 7},
		[2]any{"concurrency", 8},
		[2]any{"concurrency", 9},
		[2]any{"concurrency", 12},
		[2]any{"concurrency", 13},
	)
}

func TestConcurrencyGood(t *testing.T) {
	// A user-defined close function is not the channel builtin.
	diags := lintSnippet(t, `package model

type file struct{ open bool }

func closeFile(f *file) { f.open = false }

func shut(f *file) { closeFile(f) }
`, snippetConfig(), nil)
	wantDiags(t, diags)
}

func TestConcurrencyAllowFiles(t *testing.T) {
	// A file on the ConcurrencyAllowFiles list may launch goroutines; the
	// ban stays in force for every other model file.
	src := `package model

func spawn(work func()) {
	go work()
}
`
	cfg := snippetConfig()
	cfg.ConcurrencyAllowFiles = []string{"m/model/model.go"}
	wantDiags(t, lintSnippet(t, src, cfg, nil))

	cfg.ConcurrencyAllowFiles = []string{"m/model/other.go"}
	wantDiags(t, lintSnippet(t, src, cfg, nil), [2]any{"concurrency", 4})
}

func TestConcurrencyDefaultExemptsNoFile(t *testing.T) {
	// The repo's own config keeps every model file under the goroutine ban.
	cfg := DefaultConfig()
	if len(cfg.ConcurrencyAllowFiles) != 0 {
		t.Errorf("default config exempts %v from the concurrency rule", cfg.ConcurrencyAllowFiles)
	}
	if cfg.concurrencyAllowed("/work/repo/internal/sim/engine.go") {
		t.Error("internal/sim/engine.go must stay under the goroutine ban")
	}
}

func TestConcurrencyNonModelExempt(t *testing.T) {
	diags := lintSnippet(t, `package model

func ok() {}
`, snippetConfig(), map[string]map[string]string{
		"m/harness": {"m/harness/h.go": `package harness

func Fan(n int, work func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) { work(i); done <- struct{}{} }(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}
`},
	})
	wantDiags(t, diags)
}
