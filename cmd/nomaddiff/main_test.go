package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadSnapshotShapes pins the three accepted file layouts.
func TestLoadSnapshotShapes(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"nomadsim document", `{"result": {"Scheme": "TDC", "Metrics": {"cycles": 1000, "counters": {"x": 5}}}, "manifest": {}}`},
		{"bare system.Result", `{"Scheme": "TDC", "Metrics": {"cycles": 1000, "counters": {"x": 5}}}`},
		{"bare snapshot", `{"cycles": 1000, "counters": {"x": 5}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap, err := loadSnapshot(writeTemp(t, "r.json", c.doc))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Cycles != 1000 || snap.Counters["x"] != 5 {
				t.Errorf("snapshot = %+v", snap)
			}
		})
	}
}

func TestLoadSnapshotRejects(t *testing.T) {
	for _, c := range []struct{ name, doc string }{
		{"not json", "nope"},
		{"no snapshot", `{"something": "else"}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := loadSnapshot(writeTemp(t, "r.json", c.doc)); err == nil {
				t.Error("accepted")
			}
		})
	}
	if _, err := loadSnapshot(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := parseSpec("TDC/cact/7", true, true)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Cfg.Scheme != "TDC" || sp.Spec.Abbr != "cact" || sp.Cfg.Seed != 7 {
		t.Errorf("spec = %+v", sp.Cfg)
	}
	if !sp.Cfg.NoFastForward || sp.Cfg.ROIInstructions != 400_000 {
		t.Errorf("flags not applied: %+v", sp.Cfg)
	}
	if sp, err := parseSpec("NOMAD/pr", false, false); err != nil || sp.Cfg.Seed == 0 {
		// Seed stays at the config default when the spec omits it.
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"TDC", "Bogus/cact", "TDC/bogus", "TDC/cact/x", "a/b/c/d"} {
		if _, err := parseSpec(bad, false, false); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
