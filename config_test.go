package nomad

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"

	"nomad/internal/cliflags"
	"nomad/internal/harness"
	"nomad/internal/obs"
	"nomad/internal/system"
)

// TestDefaultConfigMatchesZero pins the DefaultConfig contract: it is the
// zero Config with every default spelled out, so both must resolve to the
// same internal configuration.
func TestDefaultConfigMatchesZero(t *testing.T) {
	def := DefaultConfig().toInternal()
	zero := Config{}.toInternal()
	if !reflect.DeepEqual(def, zero) {
		t.Fatalf("DefaultConfig resolves differently from the zero Config:\n default: %+v\n zero:    %+v", def, zero)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig does not validate: %v", err)
	}
}

// TestDefaultRunsShareOneManifest pins that one simulation has one content
// address whichever layer describes it: the public DefaultConfig and zero
// Config, the CLI's system.DefaultConfig and the experiment harness's
// BaseConfig all resolve the telemetry periods the same way.
func TestDefaultRunsShareOneManifest(t *testing.T) {
	w, err := WorkloadByAbbr("cact")
	if err != nil {
		t.Fatal(err)
	}
	addr := func(cfg Config) string {
		m, err := ManifestFor(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return m.Address
	}
	want := addr(DefaultConfig())
	addrs := map[string]string{
		"Config{}":                       addr(Config{}),
		"spelled-out default periods":    addr(Config{Telemetry: Telemetry{SpanSampleEvery: 64, Interval: 100_000}}),
		"system.DefaultConfig()":         obs.NewManifest(system.DefaultConfig(), w.spec).Address,
		"harness.Options{}.BaseConfig()": obs.NewManifest(harness.Options{}.BaseConfig(), w.spec).Address,
	}
	for name, got := range addrs {
		if got != want {
			t.Errorf("%s: address %s, want %s (DefaultConfig())", name, got, want)
		}
	}
}

// TestTelemetryPassThrough pins that every layer carries the run switches
// unchanged: with every Telemetry field set, the public Config, the harness
// BaseConfig and the harness options RunExperimentResult builds all hold the
// identical struct, and the shared CLI flags set each switch they reach. A
// field added to Telemetry later must be filled in here, which makes the
// test check it at every layer.
func TestTelemetryPassThrough(t *testing.T) {
	tel := Telemetry{
		TraceDepth:      512,
		SpanDepth:       128,
		SpanSampleEvery: 32,
		Timeline:        true,
		Interval:        50_000,
		TimelineMetrics: []string{"core.", "hbm.gbs."},
		Digests:         true,
		SelfProfile:     true,
		NoFastForward:   true,
	}
	v := reflect.ValueOf(tel)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("Telemetry.%s is zero; set every field so the test covers it", v.Type().Field(i).Name)
		}
	}

	cfg := Config{Telemetry: tel}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config does not validate: %v", err)
	}
	got := map[string]Telemetry{
		"Config.toInternal":                cfg.toInternal().Telemetry,
		"harness.Options.BaseConfig":       harness.Options{Telemetry: tel}.BaseConfig().Telemetry,
		"ExperimentOptions.harnessOptions": ExperimentOptions{Telemetry: tel}.harnessOptions(nil).Telemetry,
	}
	for layer, g := range got {
		if !reflect.DeepEqual(g, tel) {
			t.Errorf("%s changed the switches:\n got  %+v\n want %+v", layer, g, tel)
		}
	}

	// Every flag-reachable switch, set from the command line, overwrites
	// its field; SpanSampleEvery has no flag and keeps its value.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf := cliflags.Register(fs)
	if err := fs.Parse([]string{"-trace", "out.json", "-timeline", "-interval", "7",
		"-timeline-metrics", "dc.", "-digests", "-profile", "-no-ff"}); err != nil {
		t.Fatal(err)
	}
	flagged := Telemetry{
		TraceDepth:      cliflags.TraceEventDepth,
		SpanDepth:       cliflags.TraceSpanDepth,
		SpanSampleEvery: 1,
		Timeline:        true,
		Interval:        7,
		TimelineMetrics: []string{"dc."},
		Digests:         true,
		SelfProfile:     true,
		NoFastForward:   true,
	}
	applied := Telemetry{SpanSampleEvery: 1}
	cf.Apply(&applied)
	if !reflect.DeepEqual(applied, flagged) {
		t.Errorf("cliflags.Apply:\n got  %+v\n want %+v", applied, flagged)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" for valid
	}{
		{"zero", Config{}, ""},
		{"bad scheme", Config{Scheme: "Nope"}, "unknown scheme"},
		{"negative cores", Config{Cores: -1}, "negative core count"},
		{"negative trace depth", Config{Telemetry: Telemetry{TraceDepth: -4}}, "negative trace depth"},
		{"negative span depth", Config{Telemetry: Telemetry{SpanDepth: -1}}, "negative span depth"},
		{"buffers beyond pcshrs", Config{PCSHRs: 4, CopyBuffers: 8}, "exceed"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: error missing", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRunRejectsInvalidConfig pins that Run validates before building the
// machine and reports the typed validate error.
func TestRunRejectsInvalidConfig(t *testing.T) {
	w, err := WorkloadByAbbr("tc")
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := Run(Config{Scheme: "Nope"}, w)
	var e *Error
	if !errors.As(rerr, &e) {
		t.Fatalf("err = %T, want *nomad.Error", rerr)
	}
	if e.Op != "validate" || e.Workload != "tc" {
		t.Fatalf("error identity wrong: %+v", e)
	}
}
