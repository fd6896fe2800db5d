package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"nomad/internal/metrics"
)

// parRun executes one instrumented small run (timeline, digests, trace and
// span rings all on) and returns the marshalled snapshot and the Perfetto
// trace bytes. It is safe to call from several goroutines at once: errors
// are returned, not reported through t.
func parRun(s SchemeName, cores int, ff bool) ([]byte, []byte, error) {
	cfg := smallConfig(s)
	cfg.Cores = cores
	cfg.Timeline = true
	cfg.Digests = true
	cfg.Interval = 20_000
	cfg.TraceDepth = 1 << 12
	cfg.SpanDepth = 1 << 11
	cfg.NoFastForward = !ff
	m, err := New(cfg, smallSpec())
	if err != nil {
		return nil, nil, fmt.Errorf("New(%s): %w", s, err)
	}
	r, err := m.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("Run(%s): %w", s, err)
	}
	snap, err := json.Marshal(r.Metrics)
	if err != nil {
		return nil, nil, err
	}
	var trace bytes.Buffer
	if err := metrics.WritePerfetto(&trace, metrics.PerfettoRun{Name: "par", Dump: r.Trace}); err != nil {
		return nil, nil, err
	}
	return snap, trace.Bytes(), nil
}

// parBatch runs n identical machines on n goroutines at once, the way
// harness.Execute runs a batch, and returns each one's snapshot and trace.
func parBatch(t *testing.T, s SchemeName, cores int, ff bool, n int) ([][]byte, [][]byte) {
	t.Helper()
	snaps := make([][]byte, n)
	traces := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i], traces[i], errs[i] = parRun(s, cores, ff)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
	}
	return snaps, traces
}

// TestParallelByteIdentical is the contract harness.Execute's run pool
// relies on: machines simulated concurrently on separate goroutines share
// no mutable state, so for every scheme each of several concurrent runs
// produces byte-for-byte a lone run's metrics snapshot (counters, timeline,
// interval digest chains) and Perfetto trace. Under -race it also catches
// package-level state written by a running machine.
func TestParallelByteIdentical(t *testing.T) {
	const cores = 4
	const machines = 3
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			refSnap, refTrace, err := parRun(s, cores, true)
			if err != nil {
				t.Fatal(err)
			}
			var sn metrics.Snapshot
			if err := json.Unmarshal(refSnap, &sn); err != nil {
				t.Fatal(err)
			}
			if sn.Digests.Windows() == 0 {
				t.Fatal("reference run produced no digest chains; the equivalence check would be vacuous")
			}
			snaps, traces := parBatch(t, s, cores, true, machines)
			for i := range snaps {
				if !bytes.Equal(refSnap, snaps[i]) {
					t.Errorf("machine %d: metrics snapshot differs from the lone run\nlone: %.400s\nconc: %.400s",
						i, refSnap, snaps[i])
				}
				if !bytes.Equal(refTrace, traces[i]) {
					t.Errorf("machine %d: Perfetto trace differs from the lone run", i)
				}
			}
		})
	}
}

// TestParallelFastForwardByteIdentical crosses concurrent machines with
// per-ticker dormancy on and off (the stepped -no-ff reference): sleeping
// cores and DRAM devices, their wake closures and settle-on-wake accounting
// stay private to their machine, so concurrent runs match a lone run in
// both modes.
func TestParallelFastForwardByteIdentical(t *testing.T) {
	for _, ff := range []bool{true, false} {
		ff := ff
		t.Run(fmt.Sprintf("ff=%v", ff), func(t *testing.T) {
			ref, _, err := parRun(SchemeNOMAD, 2, ff)
			if err != nil {
				t.Fatal(err)
			}
			snaps, _ := parBatch(t, SchemeNOMAD, 2, ff, 4)
			for i, got := range snaps {
				if !bytes.Equal(ref, got) {
					t.Errorf("ff=%v: machine %d snapshot differs from the lone run", ff, i)
				}
			}
		})
	}
}
