// Command bench is the repository's benchmark-regression pipeline: it runs
// an end-to-end simulation-throughput benchmark per scheme, measures the
// timeline-capture overhead, optionally runs the package's Go benchmarks,
// and emits one schema-stable BENCH_<date>.json. When a previous BENCH file
// exists it prints a comparison and flags metrics that moved past the
// threshold.
//
// Usage:
//
//	bench                          # run, write bench/BENCH_<date>.json, compare
//	bench -out results -threshold 0.15
//	bench -compare latest          # diff against newest committed bench/BENCH_*.json
//	bench -gobench ''              # skip the go-test benchmarks (fastest)
//	bench -fail-on-regress         # exit 1 when a regression exceeds threshold
//
// The shared CLI flags (internal/cliflags) configure the measured runs:
// -no-ff switches dormancy off, -timeline measures with
// interval telemetry enabled, and -trace FILE additionally writes a Perfetto
// trace of one NOMAD run under the benchmark configuration (useful for
// seeing where simulated time goes). -profile is accepted for interface
// parity but self-profiling is always on — the measurements are host
// profiles. -format json emits the new BENCH document and comparison as one
// JSON object on stdout instead of the text summary.
//
// The comparison is advisory by default (exit 0) so CI can surface deltas
// without blocking merges; -fail-on-regress turns it into a gate. When no
// baseline exists yet (fresh checkout, empty -out dir) the run still
// succeeds: it records the new BENCH file and says so instead of failing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"nomad"
	"nomad/internal/cliflags"
	"nomad/internal/diag"
	"nomad/internal/obs"
	"nomad/internal/system"
	"nomad/internal/workload"
)

// Schema identifies the BENCH JSON layout; bump only with a migration note
// in DESIGN.md.
const Schema = "nomad-bench/1"

// benchROI keeps each end-to-end run short enough for CI while long enough
// (several interval windows) for stable cycles/sec.
const benchROI = 200_000

// File is one BENCH_<date>.json document.
type File struct {
	Schema    string    `json:"schema"`
	Date      string    `json:"date"`
	GoVersion string    `json:"go_version"`
	Host      string    `json:"host"`
	E2E       []E2E     `json:"e2e"`
	Timeline  *Overhead `json:"timeline_overhead,omitempty"`
	// Obs measures the live-observation slowdown (absent only on schema-old
	// baselines).
	Obs *ObsOverhead `json:"obs_overhead,omitempty"`
	// Digest measures the interval digest-chain capture slowdown (absent
	// only on schema-old baselines). The acceptance bar is under 2%.
	Digest *DigestOverhead `json:"digest_overhead,omitempty"`
	// FastForward measures the idle-cycle fast-forward speedup on one
	// blocking OS-managed scheme (absent when bench ran with -no-ff).
	FastForward *FFSpeedup `json:"fast_forward,omitempty"`
	GoBench     []GoBench  `json:"gobench,omitempty"`
}

// E2E is one end-to-end throughput measurement (higher cycles/sec is
// better).
type E2E struct {
	Name            string  `json:"name"`
	SimCycles       uint64  `json:"sim_cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	EventsPerSec    float64 `json:"events_per_sec"`
	PeakHeapBytes   uint64  `json:"peak_heap_bytes"`
	// SkipRatio is the fraction of simulated cycles the engine
	// fast-forwarded over (skipped_cycles / sim_cycles; 0 with -no-ff).
	SkipRatio float64 `json:"skip_ratio"`
	// Digest is the run's final chained interval digest. Deterministic:
	// a change between two BENCH files means the simulated behavior of the
	// benchmark run changed, not just its host-side speed.
	Digest string `json:"digest,omitempty"`
	// Metrics is the run's counter snapshot, kept so a throughput
	// regression can be attributed to behavioral metric deltas on
	// comparison (absent on schema-old baselines).
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// Overhead is the timeline-capture slowdown measurement: the same run with
// and without Config.Timeline, best-of-N cycles/sec each.
type Overhead struct {
	BaseCyclesPerSec     float64 `json:"base_cycles_per_sec"`
	TimelineCyclesPerSec float64 `json:"timeline_cycles_per_sec"`
	// OverheadPct is the relative slowdown in percent; negative means the
	// timeline run happened to be faster (noise).
	OverheadPct float64 `json:"overhead_pct"`
}

// ObsOverhead is the live-observation slowdown measurement: the same run
// bare and with an obs.RunTracker attached plus an introspection server
// being scraped throughout, best-of-N cycles/sec each. The acceptance bar
// is under 1% — observation must be effectively free.
type ObsOverhead struct {
	BaseCyclesPerSec     float64 `json:"base_cycles_per_sec"`
	ObservedCyclesPerSec float64 `json:"observed_cycles_per_sec"`
	// OverheadPct is the relative slowdown in percent; negative means the
	// observed run happened to be faster (noise).
	OverheadPct float64 `json:"overhead_pct"`
}

// DigestOverhead is the digest-chain capture slowdown measurement: the same
// run with and without Telemetry.Digests, best-of-N cycles/sec each.
type DigestOverhead struct {
	BaseCyclesPerSec   float64 `json:"base_cycles_per_sec"`
	DigestCyclesPerSec float64 `json:"digest_cycles_per_sec"`
	// OverheadPct is the relative slowdown in percent; negative means the
	// digest run happened to be faster (noise).
	OverheadPct float64 `json:"overhead_pct"`
}

// FFSpeedup is the idle-cycle fast-forward effectiveness measurement: the
// same run with fast-forward on and off, best-of-N cycles/sec each.
type FFSpeedup struct {
	Scheme          string  `json:"scheme"`
	OnCyclesPerSec  float64 `json:"on_cycles_per_sec"`
	OffCyclesPerSec float64 `json:"off_cycles_per_sec"`
	// Speedup is on/off; >1 means fast-forward helped.
	Speedup float64 `json:"speedup"`
}

// GoBench is one `go test -bench` result (lower ns/op is better).
type GoBench struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

func main() {
	debug.SetGCPercent(600)
	var (
		outDir  = flag.String("out", "bench", "directory for BENCH_<date>.json")
		compare = flag.String("compare", "", "previous BENCH file to diff against: a path, a glob, or 'latest' for the newest committed bench/BENCH_*.json (default: latest in -out)")
		thresh  = flag.Float64("threshold", 0.10, "relative change flagged as a regression")
		gobench = flag.String("gobench", "BenchmarkSimulatorThroughput", "go test -bench regexp ('' skips)")
		reps    = flag.Int("reps", 3, "repetitions per throughput measurement (best-of)")
		failOn  = flag.Bool("fail-on-regress", false, "exit 1 when any metric regresses past threshold")
	)
	cf := cliflags.Register(flag.CommandLine)
	flag.Parse()
	if err := cf.Check("text", "json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := cf.Logger(os.Stderr)
	// -http serves live host metrics and pprof while bench runs; the
	// observation-overhead measurement below always builds its own private
	// server so the measurement is self-contained.
	cf.StartObs(logger)
	cf.StartPprof(os.Stderr)

	f := &File{
		Schema:    Schema,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Host:      runtime.GOOS + "/" + runtime.GOARCH,
	}

	logger.Info("end-to-end throughput", "reps", *reps)
	for _, scheme := range nomad.Schemes() {
		e, err := runE2E(cf, scheme, *reps)
		if err != nil {
			fatal("e2e %s: %v", scheme, err)
		}
		f.E2E = append(f.E2E, e)
		logger.Info("e2e", "run", e.Name,
			"mcyc_per_sec", round2(e.SimCyclesPerSec/1e6),
			"mevents_per_sec", round2(e.EventsPerSec/1e6),
			"peak_heap_mb", round2(float64(e.PeakHeapBytes)/(1024*1024)),
			"skip_pct", round2(100*e.SkipRatio))
	}

	ov, err := runOverhead(cf, *reps)
	if err != nil {
		fatal("timeline overhead: %v", err)
	}
	f.Timeline = ov
	logger.Info("timeline overhead",
		"base_mcyc_per_sec", round2(ov.BaseCyclesPerSec/1e6),
		"timeline_mcyc_per_sec", round2(ov.TimelineCyclesPerSec/1e6),
		"overhead_pct", round2(ov.OverheadPct))

	oo, err := runObsOverhead(cf, *reps)
	if err != nil {
		fatal("observation overhead: %v", err)
	}
	f.Obs = oo
	logger.Info("observation overhead",
		"base_mcyc_per_sec", round2(oo.BaseCyclesPerSec/1e6),
		"observed_mcyc_per_sec", round2(oo.ObservedCyclesPerSec/1e6),
		"overhead_pct", round2(oo.OverheadPct))

	dov, err := runDigestOverhead(cf, *reps)
	if err != nil {
		fatal("digest overhead: %v", err)
	}
	f.Digest = dov
	logger.Info("digest overhead",
		"base_mcyc_per_sec", round2(dov.BaseCyclesPerSec/1e6),
		"digest_mcyc_per_sec", round2(dov.DigestCyclesPerSec/1e6),
		"overhead_pct", round2(dov.OverheadPct))

	if !cf.NoFF {
		sp, err := runFFSpeedup(cf, *reps)
		if err != nil {
			fatal("fast-forward speedup: %v", err)
		}
		f.FastForward = sp
		logger.Info("fast-forward speedup", "scheme", sp.Scheme,
			"on_mcyc_per_sec", round2(sp.OnCyclesPerSec/1e6),
			"off_mcyc_per_sec", round2(sp.OffCyclesPerSec/1e6),
			"speedup", round2(sp.Speedup))
	}

	if *gobench != "" {
		logger.Info("go test -bench", "pattern", *gobench)
		gb, err := runGoBench(*gobench)
		if err != nil {
			fatal("gobench: %v", err)
		}
		f.GoBench = gb
		for _, b := range gb {
			logger.Info("gobench", "name", b.Name, "ns_per_op", b.NsPerOp)
		}
	}

	if cf.Trace != "" {
		if err := writeTraceRun(cf); err != nil {
			fatal("trace: %v", err)
		}
		logger.Info("wrote Perfetto trace — open at https://ui.perfetto.dev", "path", cf.Trace)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	outPath := filepath.Join(*outDir, "BENCH_"+f.Date+".json")
	prevPath, note := resolveBaseline(*compare, *outDir, outPath)
	if err := writeFile(outPath, f); err != nil {
		fatal("%v", err)
	}
	logger.Info("wrote BENCH file", "path", outPath)

	// Summary is the stdout rendering: a note when no baseline exists, the
	// per-metric comparison otherwise — as text lines or (with -format
	// json) one machine-readable document.
	summary := Summary{File: f}
	if prevPath == "" {
		// A missing baseline is the normal first-run state, not an error:
		// record the new file and exit clean so CI pipelines work on
		// fresh branches.
		summary.Note = note + "; recorded " + outPath + " as the new baseline"
	} else if prev, err := readFile(prevPath); err != nil {
		if !os.IsNotExist(err) {
			fatal("compare %s: %v", prevPath, err)
		}
		summary.Note = "baseline " + prevPath + " does not exist; recorded " + outPath + " as the new baseline"
	} else {
		summary.Baseline = prevPath
		summary.Deltas = Compare(prev, f, *thresh)
		summary.Added, summary.Dropped = Coverage(prev, f)
		summary.Attribution = Attribute(prev, f, summary.Deltas, 0)
	}
	regressed := false
	for _, d := range summary.Deltas {
		if d.Regression {
			regressed = true
		}
	}
	switch cf.Format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fatal("encode: %v", err)
		}
	default:
		if summary.Baseline == "" {
			fmt.Println(summary.Note)
		} else {
			fmt.Printf("comparison vs %s (threshold %.0f%%):\n", filepath.Base(summary.Baseline), 100**thresh)
			for _, d := range summary.Deltas {
				fmt.Println("  " + d.String())
			}
			if len(summary.Added) > 0 {
				fmt.Printf("added measurements (no baseline): %s\n", strings.Join(summary.Added, ", "))
			}
			if len(summary.Dropped) > 0 {
				fmt.Printf("dropped measurements (baseline only): %s\n", strings.Join(summary.Dropped, ", "))
			}
			for _, a := range summary.Attribution {
				fmt.Printf("attribution %s: %s\n", a.Name, a.Note)
				for _, md := range a.Deltas {
					fmt.Println("  " + md.String())
				}
			}
		}
	}
	if regressed && *failOn {
		os.Exit(1)
	}
}

// Summary is the stdout document of one bench invocation: the freshly
// written BENCH file plus the comparison against the resolved baseline (or a
// note explaining why there is none).
type Summary struct {
	File     *File   `json:"file"`
	Baseline string  `json:"baseline,omitempty"`
	Note     string  `json:"note,omitempty"`
	Deltas   []Delta `json:"deltas,omitempty"`
	// Added/Dropped are measurements present in only one of the two files
	// (current only / baseline only) — the entries the deltas skip.
	Added   []string `json:"added,omitempty"`
	Dropped []string `json:"dropped,omitempty"`
	// Attribution explains each regressed e2e entry via its digest chain
	// and counter captures.
	Attribution []Attribution `json:"attribution,omitempty"`
}

// measureConfig is the simulation configuration every bench measurement
// runs: one-instruction warmup, the short bench ROI, self-profiling on (the
// measurements ARE the host profile), and the dormancy/telemetry variant the
// shared CLI flags selected.
func measureConfig(cf *cliflags.Common, scheme nomad.Scheme) nomad.Config {
	return nomad.Config{
		Scheme:             scheme,
		WarmupInstructions: 1,
		ROIInstructions:    benchROI,
		Telemetry: nomad.Telemetry{
			SelfProfile:     true,
			NoFastForward:   cf.NoFF,
			Timeline:        cf.Timeline,
			Interval:        cf.Interval,
			TimelineMetrics: cf.Metrics(),
			// Digest chains are always on so every E2E entry carries the
			// behavioral fingerprint comparisons attribute regressions
			// with; runDigestOverhead turns them off for its base side.
			Digests: true,
		},
	}
}

// writeTraceRun performs one NOMAD run under the benchmark configuration
// with trace capture enabled and writes the Perfetto file -trace named.
func writeTraceRun(cf *cliflags.Common) error {
	w, err := nomad.WorkloadByAbbr("cact")
	if err != nil {
		return err
	}
	cfg := measureConfig(cf, nomad.SchemeNOMAD)
	cfg.Telemetry.TraceDepth = cliflags.TraceEventDepth
	cfg.Telemetry.SpanDepth = cliflags.TraceSpanDepth
	res, err := nomad.Run(cfg, w)
	if err != nil {
		return err
	}
	out, err := os.Create(cf.Trace)
	if err != nil {
		return err
	}
	if err := res.WriteTrace(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// round2 trims measurement floats to two decimals so log records stay
// readable in both text and JSON encodings.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runE2E measures one scheme's simulation throughput on cactusADM with
// self-profiling attached, keeping the fastest of reps runs (throughput
// benchmarks take the best sample: it has the least scheduler noise).
func runE2E(cf *cliflags.Common, scheme nomad.Scheme, reps int) (E2E, error) {
	w, err := nomad.WorkloadByAbbr("cact")
	if err != nil {
		return E2E{}, err
	}
	best := E2E{Name: "e2e/" + string(scheme)}
	for i := 0; i < reps; i++ {
		res, err := nomad.Run(measureConfig(cf, scheme), w)
		if err != nil {
			return E2E{}, err
		}
		h := res.Host()
		if h == nil {
			return E2E{}, fmt.Errorf("run returned no host profile")
		}
		if h.SimCyclesPerSec > best.SimCyclesPerSec {
			best.SimCycles = h.SimCycles
			best.WallSeconds = h.WallSeconds
			best.SimCyclesPerSec = h.SimCyclesPerSec
			best.EventsPerSec = h.EventsPerSec
			best.PeakHeapBytes = h.PeakHeapInUseBytes
			best.SkipRatio = 0
			if h.SimCycles > 0 {
				best.SkipRatio = float64(h.SkippedCycles) / float64(h.SimCycles)
			}
			// Behavioral fingerprint for regression attribution. Every rep
			// runs the same seed, so any rep's digest and counters match
			// the best one's.
			best.Digest = res.Digests().Final()
			if snap := res.Metrics(); snap != nil {
				best.Metrics = snap.Counters
			}
		}
	}
	return best, nil
}

// runFFSpeedup measures end-to-end throughput with fast-forward on and off
// on single-core TDC: the blocking OS-managed scheme has the longest
// OS-suspension stalls, and a jump requires every core to be quiescent at
// once, so one core exposes the full span length (multi-core runs intersect
// the spans and see proportionally less).
func runFFSpeedup(cf *cliflags.Common, reps int) (*FFSpeedup, error) {
	w, err := nomad.WorkloadByAbbr("cact")
	if err != nil {
		return nil, err
	}
	measure := func(noFF bool) (float64, error) {
		var best float64
		for i := 0; i < reps; i++ {
			cfg := measureConfig(cf, nomad.SchemeTDC)
			cfg.Cores = 1
			cfg.NoFastForward = noFF
			res, err := nomad.Run(cfg, w)
			if err != nil {
				return 0, err
			}
			if h := res.Host(); h != nil && h.SimCyclesPerSec > best {
				best = h.SimCyclesPerSec
			}
		}
		return best, nil
	}
	on, err := measure(false)
	if err != nil {
		return nil, err
	}
	off, err := measure(true)
	if err != nil {
		return nil, err
	}
	sp := &FFSpeedup{Scheme: string(nomad.SchemeTDC), OnCyclesPerSec: on, OffCyclesPerSec: off}
	if off > 0 {
		sp.Speedup = on / off
	}
	return sp, nil
}

// runDigestOverhead measures the digest-chain capture's slowdown: NOMAD on
// cactusADM with and without Telemetry.Digests at the default interval,
// best-of-reps cycles/sec each.
func runDigestOverhead(cf *cliflags.Common, reps int) (*DigestOverhead, error) {
	w, err := nomad.WorkloadByAbbr("cact")
	if err != nil {
		return nil, err
	}
	measure := func(digests bool) (float64, error) {
		var best float64
		for i := 0; i < reps; i++ {
			cfg := measureConfig(cf, nomad.SchemeNOMAD)
			cfg.Telemetry.Digests = digests
			res, err := nomad.Run(cfg, w)
			if err != nil {
				return 0, err
			}
			if h := res.Host(); h != nil && h.SimCyclesPerSec > best {
				best = h.SimCyclesPerSec
			}
		}
		return best, nil
	}
	base, err := measure(false)
	if err != nil {
		return nil, err
	}
	dg, err := measure(true)
	if err != nil {
		return nil, err
	}
	ov := &DigestOverhead{BaseCyclesPerSec: base, DigestCyclesPerSec: dg}
	if base > 0 {
		ov.OverheadPct = 100 * (base - dg) / base
	}
	return ov, nil
}

// runOverhead measures the timeline capture's slowdown: NOMAD on cactusADM
// with and without Config.Timeline at the default interval, best-of-reps
// cycles/sec each.
func runOverhead(cf *cliflags.Common, reps int) (*Overhead, error) {
	w, err := nomad.WorkloadByAbbr("cact")
	if err != nil {
		return nil, err
	}
	measure := func(timeline bool) (float64, error) {
		var best float64
		for i := 0; i < reps; i++ {
			cfg := measureConfig(cf, nomad.SchemeNOMAD)
			cfg.Telemetry.Timeline = timeline
			res, err := nomad.Run(cfg, w)
			if err != nil {
				return 0, err
			}
			if h := res.Host(); h != nil && h.SimCyclesPerSec > best {
				best = h.SimCyclesPerSec
			}
		}
		return best, nil
	}
	base, err := measure(false)
	if err != nil {
		return nil, err
	}
	tl, err := measure(true)
	if err != nil {
		return nil, err
	}
	ov := &Overhead{BaseCyclesPerSec: base, TimelineCyclesPerSec: tl}
	if base > 0 {
		ov.OverheadPct = 100 * (base - tl) / base
	}
	return ov, nil
}

// runObsOverhead measures the live-observation slowdown: NOMAD on cactusADM
// bare versus registered with an obs.RunTracker whose introspection server
// is scraped (GET /metrics + /runs) throughout the run, best-of-reps
// cycles/sec each. It builds a private server on a loopback port so the
// measurement covers the full observation path without needing -http.
func runObsOverhead(cf *cliflags.Common, reps int) (*ObsOverhead, error) {
	sp, ok := workload.ByAbbr("cact")
	if !ok {
		return nil, fmt.Errorf("workload cact not found")
	}
	cfg := system.DefaultConfig()
	cfg.Scheme = system.SchemeNOMAD
	cfg.WarmupInstructions = 1
	cfg.ROIInstructions = benchROI
	cfg.NoFastForward = cf.NoFF
	cfg.SelfProfile = true

	measure := func(tracker *obs.RunTracker, rep int) (float64, error) {
		m, err := system.New(cfg, sp)
		if err != nil {
			return 0, err
		}
		if tracker != nil {
			h := tracker.Start(fmt.Sprintf("bench/obs/%d", rep), obs.NewManifest(cfg, sp))
			reg := m.Metrics()
			m.SetProgress(func(p system.Progress) { h.Observe(p, reg) })
			defer h.Finish()
		}
		r, err := m.Run()
		if err != nil {
			return 0, err
		}
		if r.Host == nil {
			return 0, fmt.Errorf("run returned no host profile")
		}
		return r.Host.SimCyclesPerSec, nil
	}
	best := func(tracker *obs.RunTracker) (float64, error) {
		var b float64
		for i := 0; i < reps; i++ {
			c, err := measure(tracker, i)
			if err != nil {
				return 0, err
			}
			if c > b {
				b = c
			}
		}
		return b, nil
	}

	base, err := best(nil)
	if err != nil {
		return nil, err
	}

	tracker := obs.NewRunTracker()
	addr, err := obs.NewServer(tracker).Start("127.0.0.1:0", func(error) {})
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		client := &http.Client{Timeout: time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/runs"} {
				resp, err := client.Get("http://" + addr.String() + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			// The tracker refreshes registry snapshots at most every
			// 500 ms, so scraping faster only re-reads unchanged data;
			// this matches a live dashboard's cadence.
			time.Sleep(500 * time.Millisecond)
		}
	}()
	observed, err := best(tracker)
	close(stop)
	<-scraped
	if err != nil {
		return nil, err
	}

	ov := &ObsOverhead{BaseCyclesPerSec: base, ObservedCyclesPerSec: observed}
	if base > 0 {
		ov.OverheadPct = 100 * (base - observed) / base
	}
	return ov, nil
}

// runGoBench shells out to the Go toolchain for the package benchmarks and
// parses the standard -bench output.
func runGoBench(pattern string) ([]GoBench, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern, "-benchtime", "1x", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	return ParseGoBench(string(out)), nil
}

// ParseGoBench extracts Benchmark lines from `go test -bench` output. The
// trailing -N GOMAXPROCS suffix is stripped so names stay stable across
// machines.
func ParseGoBench(out string) []GoBench {
	var res []GoBench
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		res = append(res, GoBench{Name: name, NsPerOp: ns})
	}
	return res
}

// Delta is one compared metric.
type Delta struct {
	Name string
	// Old and New are in the metric's native unit (cycles/sec or ns/op).
	Old, New float64
	// Change is the relative change, signed so that POSITIVE is better
	// (throughput up, ns/op down).
	Change     float64
	Regression bool
}

// String renders one comparison line.
func (d Delta) String() string {
	tag := ""
	if d.Regression {
		tag = "  REGRESSION"
	}
	return fmt.Sprintf("%-40s %12.3g -> %12.3g  %+6.1f%%%s", d.Name, d.Old, d.New, 100*d.Change, tag)
}

// Compare diffs two BENCH files metric-by-metric. Metrics present in only
// one file produce no delta (schema growth is not a regression) — Coverage
// reports them so they surface instead of disappearing. threshold is the
// relative worsening flagged as a regression.
func Compare(prev, cur *File, threshold float64) []Delta {
	var deltas []Delta
	higherBetter := func(name string, old, new float64) {
		if old <= 0 {
			return
		}
		ch := (new - old) / old
		deltas = append(deltas, Delta{Name: name, Old: old, New: new, Change: ch, Regression: ch < -threshold})
	}
	lowerBetter := func(name string, old, new float64) {
		if old <= 0 {
			return
		}
		ch := (old - new) / old
		deltas = append(deltas, Delta{Name: name, Old: old, New: new, Change: ch, Regression: ch < -threshold})
	}
	prevE2E := map[string]E2E{}
	for _, e := range prev.E2E {
		prevE2E[e.Name] = e
	}
	for _, e := range cur.E2E {
		if p, ok := prevE2E[e.Name]; ok {
			higherBetter(e.Name+" cycles/s", p.SimCyclesPerSec, e.SimCyclesPerSec)
		}
	}
	if prev.Timeline != nil && cur.Timeline != nil {
		// The overhead itself is a lower-is-better percentage; compare the
		// absolute timeline-on throughput, which is what users experience.
		higherBetter("timeline cycles/s", prev.Timeline.TimelineCyclesPerSec, cur.Timeline.TimelineCyclesPerSec)
	}
	if prev.Obs != nil && cur.Obs != nil {
		higherBetter("observed cycles/s", prev.Obs.ObservedCyclesPerSec, cur.Obs.ObservedCyclesPerSec)
	}
	if prev.Digest != nil && cur.Digest != nil {
		higherBetter("digest cycles/s", prev.Digest.DigestCyclesPerSec, cur.Digest.DigestCyclesPerSec)
	}
	if prev.FastForward != nil && cur.FastForward != nil && prev.FastForward.Scheme == cur.FastForward.Scheme {
		// Gate on the absolute fast-forwarded throughput. The on/off ratio
		// stays advisory (never a Regression): it shrinks by construction
		// whenever the non-fast-forwarded busy path gets faster, which is an
		// improvement, not a regression.
		higherBetter("ff on "+cur.FastForward.Scheme+" cycles/s", prev.FastForward.OnCyclesPerSec, cur.FastForward.OnCyclesPerSec)
		if old, new := prev.FastForward.Speedup, cur.FastForward.Speedup; old > 0 {
			deltas = append(deltas, Delta{Name: "ff speedup " + cur.FastForward.Scheme + " (advisory)",
				Old: old, New: new, Change: (new - old) / old})
		}
	}
	prevGB := map[string]GoBench{}
	for _, b := range prev.GoBench {
		prevGB[b.Name] = b
	}
	for _, b := range cur.GoBench {
		if p, ok := prevGB[b.Name]; ok {
			lowerBetter(b.Name+" ns/op", p.NsPerOp, b.NsPerOp)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}

// Coverage lists the measurements present in only one of two BENCH files —
// the entries Compare necessarily skips. Schema growth is not a regression,
// but silently comparing a shrunken file reads as "all clear" when it is
// not, so comparisons print both lists.
func Coverage(prev, cur *File) (added, dropped []string) {
	names := func(f *File) map[string]bool {
		s := map[string]bool{}
		for _, e := range f.E2E {
			s[e.Name] = true
		}
		for _, b := range f.GoBench {
			s[b.Name] = true
		}
		if f.Timeline != nil {
			s["timeline_overhead"] = true
		}
		if f.Obs != nil {
			s["obs_overhead"] = true
		}
		if f.Digest != nil {
			s["digest_overhead"] = true
		}
		if f.FastForward != nil {
			s["fast_forward"] = true
		}
		return s
	}
	p, c := names(prev), names(cur)
	for n := range c {
		if !p[n] {
			added = append(added, n)
		}
	}
	for n := range p {
		if !c[n] {
			dropped = append(dropped, n)
		}
	}
	sort.Strings(added)
	sort.Strings(dropped)
	return added, dropped
}

// Attribution explains one regressed end-to-end entry by its behavioral
// captures: either the digest chains match — the simulated behavior is
// identical and the slowdown is host-side (code, toolchain, machine) — or
// they differ and the top counter deltas say what changed.
type Attribution struct {
	Name string `json:"name"`
	// BehaviorIdentical is true when both files carry the run's digest and
	// they agree.
	BehaviorIdentical bool   `json:"behavior_identical"`
	Note              string `json:"note"`
	// Deltas ranks the counter changes when the behavior differs.
	Deltas []diag.MetricDelta `json:"deltas,omitempty"`
}

// Attribute builds attributions for the regressed e2e entries in deltas,
// keeping at most topK counter deltas each (0 = 5).
func Attribute(prev, cur *File, deltas []Delta, topK int) []Attribution {
	if topK <= 0 {
		topK = 5
	}
	prevE2E := map[string]E2E{}
	for _, e := range prev.E2E {
		prevE2E[e.Name] = e
	}
	curE2E := map[string]E2E{}
	for _, e := range cur.E2E {
		curE2E[e.Name] = e
	}
	var out []Attribution
	for _, d := range deltas {
		name, ok := strings.CutSuffix(d.Name, " cycles/s")
		if !d.Regression || !ok {
			continue
		}
		p, pok := prevE2E[name]
		c, cok := curE2E[name]
		if !pok || !cok {
			continue
		}
		a := Attribution{Name: name}
		switch {
		case p.Digest == "" || c.Digest == "":
			a.Note = "no digest recorded on one side; cannot separate behavioral from host-side change"
		case p.Digest == c.Digest:
			a.BehaviorIdentical = true
			a.Note = "digest chains match: simulated behavior is identical, the slowdown is host-side"
		default:
			a.Note = fmt.Sprintf("digest %s -> %s: simulated behavior changed", p.Digest, c.Digest)
			pm := make(map[string]float64, len(p.Metrics))
			for k, v := range p.Metrics {
				pm[k] = float64(v)
			}
			cm := make(map[string]float64, len(c.Metrics))
			for k, v := range c.Metrics {
				cm[k] = float64(v)
			}
			md, _, _ := diag.RankDeltas(pm, cm)
			if len(md) > topK {
				md = md[:topK]
			}
			a.Deltas = md
		}
		out = append(out, a)
	}
	return out
}

// resolveBaseline turns the -compare flag into a baseline path, degrading
// gracefully instead of failing the pipeline:
//
//	""        latest BENCH_*.json in -out (the pre-existing default)
//	"latest"  latest committed baseline in bench/, falling back to -out
//	a glob    expanded here, so `-compare 'bench/BENCH_*.json'` works even
//	          when the shell passed the pattern through unexpanded
//	a path    used as-is
//
// An empty result means "no baseline"; note says why, for the user-facing
// message.
func resolveBaseline(compare, outDir, outPath string) (path, note string) {
	switch {
	case compare == "":
		if p := latestBenchFile(outDir, outPath); p != "" {
			return p, ""
		}
		return "", "no previous BENCH file in " + outDir
	case compare == "latest":
		if p := latestBenchFile("bench", outPath); p != "" {
			return p, ""
		}
		if outDir != "bench" {
			if p := latestBenchFile(outDir, outPath); p != "" {
				return p, ""
			}
		}
		return "", "no committed BENCH baseline found"
	case strings.ContainsAny(compare, "*?["):
		matches, _ := filepath.Glob(compare)
		sort.Strings(matches)
		for i := len(matches) - 1; i >= 0; i-- {
			if matches[i] != outPath {
				return matches[i], ""
			}
		}
		return "", "no BENCH file matches " + compare
	default:
		return compare, ""
	}
}

// latestBenchFile returns the lexically latest BENCH_*.json in dir other
// than exclude ("" when none exists). BENCH filenames embed ISO dates, so
// lexical order is chronological.
func latestBenchFile(dir, exclude string) string {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if matches[i] != exclude {
			return matches[i]
		}
	}
	return ""
}

func writeFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("unsupported schema %q (want %q)", f.Schema, Schema)
	}
	return &f, nil
}
