package system

import (
	"encoding/json"
	"reflect"
	"testing"
)

// digestConfig is smallConfig with digest capture on at a short interval so
// several windows fit in the small ROI.
func digestConfig(scheme SchemeName) Config {
	cfg := smallConfig(scheme)
	cfg.Digests = true
	cfg.Interval = 20_000
	return cfg
}

// TestDigestChainByteIdentical is the digest determinism contract the whole
// diag subsystem rests on: for every scheme, the digest chain must be
// byte-for-byte identical with fast-forward on and off. A digest difference
// must mean the runs behaved differently — never that the host executed
// them differently.
func TestDigestChainByteIdentical(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			var chains [2][]byte
			for i, ff := range []bool{true, false} {
				cfg := digestConfig(s)
				cfg.NoFastForward = !ff
				m, err := New(cfg, smallSpec())
				if err != nil {
					t.Fatal(err)
				}
				r, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				dc := r.Metrics.Digests
				if dc == nil {
					t.Fatal("Config.Digests produced no chain")
				}
				if dc.Windows() == 0 {
					t.Fatal("digest chain is empty")
				}
				if chains[i], err = json.Marshal(dc); err != nil {
					t.Fatal(err)
				}
			}
			if string(chains[0]) != string(chains[1]) {
				t.Errorf("digest chain differs between ff=true and ff=false\nff=true:  %.300s\nff=false: %.300s",
					chains[0], chains[1])
			}
		})
	}
}

// TestDigestChainChangesWithSeed is the other half of the contract: two runs
// that do behave differently must diverge, and the chain property holds —
// once one window differs, every later window differs too.
func TestDigestChainChangesWithSeed(t *testing.T) {
	run := func(seed uint64) *Result {
		cfg := digestConfig(SchemeTDC)
		cfg.Seed = seed
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(1).Metrics.Digests, run(2).Metrics.Digests
	i := a.FirstDivergence(b)
	if i < 0 {
		t.Fatal("different seeds produced identical digest chains")
	}
	n := a.Windows()
	if b.Windows() < n {
		n = b.Windows()
	}
	for j := i; j < n; j++ {
		if a.Digests[j] == b.Digests[j] && a.Cycles[j] == b.Cycles[j] {
			t.Errorf("window %d re-converged after divergence at %d: chaining broken", j, i)
		}
	}
}

// TestDigestsOffByDefault pins the opt-in: without Config.Digests the
// snapshot carries no chain and the JSON encoding is unchanged.
func TestDigestsOffByDefault(t *testing.T) {
	r := runScheme(t, SchemeNOMAD)
	if r.Metrics.Digests != nil {
		t.Error("digest chain present without Config.Digests")
	}
	enc, err := json.Marshal(r.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(enc, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["digests"]; ok {
		t.Error(`"digests" key emitted without Config.Digests`)
	}
}

// TestROICycleLimit pins the partial-replay primitive Bisect relies on: a
// run cut off at cycle N ends at exactly N (ROI-relative), is a
// deterministic prefix of the full run, and behaves identically with
// fast-forward on and off.
func TestROICycleLimit(t *testing.T) {
	full := func() *Result {
		cfg := digestConfig(SchemeTDC)
		cfg.Timeline = true
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	fullDC := full.Metrics.Digests
	if fullDC.Windows() < 2 {
		t.Fatalf("full run collected %d windows; test needs >= 2", fullDC.Windows())
	}
	// Cut at the end of the second window.
	stop := fullDC.Cycles[1]

	var ref *Result
	for _, ff := range []bool{true, false} {
		cfg := digestConfig(SchemeTDC)
		cfg.Timeline = true
		cfg.ROICycleLimit = stop
		cfg.NoFastForward = !ff
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatalf("cutoff run (ff=%v): %v", ff, err)
		}
		if r.Cycles != stop {
			t.Fatalf("ff=%v: cutoff run ended at cycle %d, want exactly %d", ff, r.Cycles, stop)
		}
		// The partial chain must be a prefix of the full run's chain.
		pdc := r.Metrics.Digests
		if pdc.Windows() != 2 {
			t.Fatalf("ff=%v: cutoff run collected %d windows, want 2", ff, pdc.Windows())
		}
		for i := 0; i < 2; i++ {
			if pdc.Digests[i] != fullDC.Digests[i] || pdc.Cycles[i] != fullDC.Cycles[i] {
				t.Errorf("ff=%v: window %d = (%d, %s), full run has (%d, %s): not a prefix",
					ff, i, pdc.Cycles[i], pdc.Digests[i], fullDC.Cycles[i], fullDC.Digests[i])
			}
		}
		if ref == nil {
			ref = r
			continue
		}
		// Cutoff runs must also be invariant to fast-forward.
		if !reflect.DeepEqual(r.Metrics, ref.Metrics) {
			t.Errorf("ff=%v: cutoff snapshot differs from ff=true", ff)
		}
	}
}
