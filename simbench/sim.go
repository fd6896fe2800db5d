package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nomad/internal/mem"
	"nomad/internal/system"
	"nomad/internal/workload"
)

// simRun is one simulation of the closed loop: its host-time spans, its
// exact work counts and its outputs.
type simRun struct {
	err error
	res *system.Result

	// Host time: system.New, warmup (RunContext start to the warmup
	// phase's final progress report), ROI (the rest) and all of RunContext,
	// by the wall clock; and the process's CPU time (user plus system, all
	// threads) over RunContext, which leaves out time it was descheduled.
	setup, warmup, roi, total time.Duration
	cpu                       time.Duration

	// Exact counts, read from the engine and the cores after the run.
	instructions uint64 // retired by all cores, warmup plus ROI
	events       uint64 // engine events executed, warmup plus ROI
	skipped      uint64 // cycles fast-forward skipped, warmup plus ROI
	cycles       uint64 // final engine cycle
	digest       uint64 // over the sorted ROI counters and gauges

	// Go runtime work during RunContext (host-dependent in detail).
	mallocs, allocBytes, gcCycles uint64

	profile  []byte // gzipped CPU profile of RunContext (traced run only)
	failures []string
}

// timeSetups builds n machines back to back from a collected heap,
// discarding each, and returns the process's CPU seconds per system.New.
// Collecting the garbage they leave is part of their cost, so it falls in
// the batch.
func timeSetups(cfg system.Config, spec workload.Spec, n int) (float64, error) {
	runtime.GC()
	c0 := cpuTime()
	for i := 0; i < n; i++ {
		if _, err := system.New(cfg, spec); err != nil {
			return 0, fmt.Errorf("system.New: %w", err)
		}
	}
	return (cpuTime() - c0).Seconds() / float64(n), nil
}

// runSim builds and runs one machine. With profile set, the Go CPU profiler
// runs exactly around RunContext.
func runSim(ctx context.Context, cfg system.Config, spec workload.Spec, profile bool) *simRun {
	r := &simRun{}
	// Each simulation starts from a collected heap, as it would in a fresh
	// process, so garbage from the previous one is not charged to it.
	runtime.GC()
	t0 := time.Now()
	m, err := system.New(cfg, spec)
	r.setup = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("system.New: %w", err)
		return r
	}
	var warmEnd time.Time
	m.SetProgress(func(p system.Progress) {
		if warmEnd.IsZero() && p.Phase == "warmup" && p.Done >= p.Target {
			warmEnd = time.Now()
		}
	})
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if profile {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			r.err = fmt.Errorf("start CPU profile: %w", err)
			return r
		}
	}
	c1, t1 := cpuTime(), time.Now()
	res, err := m.RunContext(ctx)
	t2, c2 := time.Now(), cpuTime()
	if profile {
		pprof.StopCPUProfile()
		r.profile = buf.Bytes()
	}
	runtime.ReadMemStats(&ms1)
	r.total, r.cpu = t2.Sub(t1), c2-c1
	if warmEnd.IsZero() {
		warmEnd = t1
	}
	r.warmup, r.roi = warmEnd.Sub(t1), t2.Sub(warmEnd)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	if err != nil {
		r.err = fmt.Errorf("RunContext: %w", err)
		return r
	}
	r.res = res
	for _, c := range m.Cores() {
		r.instructions += c.Stats().Instructions
	}
	eng := m.Engine()
	r.events, r.skipped, r.cycles = eng.Executed(), eng.SkippedCycles(), eng.Now()
	r.digest = outcomeDigest(res)
	return r
}

// kips is simulated kilo-instructions retired per CPU second of RunContext.
func (r *simRun) kips() float64 {
	return float64(r.instructions) / 1e3 / r.cpu.Seconds()
}

// wallKIPS is kips by the wall clock.
func (r *simRun) wallKIPS() float64 {
	return float64(r.instructions) / 1e3 / r.total.Seconds()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcomeDigest is FNV-1a 64 over the ROI snapshot's cycle count and its
// counters and gauges in name order.
func outcomeDigest(res *system.Result) uint64 {
	snap := res.Metrics
	h := fnv.New64a()
	fmt.Fprintf(h, "cycles=%d\n", snap.Cycles)
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "c %s=%d\n", n, snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "g %s=%d\n", n, math.Float64bits(snap.Gauges[n]))
	}
	return h.Sum64()
}

// check records every output check the run fails. ref is the first
// successful run of the same seed (nil for the first): the digest and the
// engine's counts must repeat it exactly.
func (r *simRun) check(cfg system.Config, ref *simRun) {
	if r.err != nil {
		r.failures = append(r.failures, r.err.Error())
		return
	}
	res, snap := r.res, r.res.Metrics
	if got, want := res.CPIStack.Total(), res.Cycles*uint64(res.Cores); got != want {
		r.failures = append(r.failures, fmt.Sprintf("CPI stack sums to %d, want cycles×cores = %d", got, want))
	}
	var hbmBytes uint64
	for _, b := range res.HBMBytesByKind {
		hbmBytes += b
	}
	hbmBursts := snap.Counter("hbm.reads") + snap.Counter("hbm.writes")
	if hbmBytes != hbmBursts*mem.BlockSize {
		r.failures = append(r.failures, fmt.Sprintf("HBM categories sum to %d B, want %d bursts × %d B", hbmBytes, hbmBursts, mem.BlockSize))
	}
	for i := 0; i < res.Cores; i++ {
		if got := snap.Counter(fmt.Sprintf("core.%d.instructions", i)); got < cfg.ROIInstructions {
			r.failures = append(r.failures, fmt.Sprintf("core %d retired %d ROI instructions, want at least %d", i, got, cfg.ROIInstructions))
		}
	}
	if ref == nil {
		return
	}
	if r.digest != ref.digest || r.events != ref.events || r.skipped != ref.skipped ||
		r.cycles != ref.cycles || r.instructions != ref.instructions {
		r.failures = append(r.failures, fmt.Sprintf(
			"outcome differs from the seed's first run: digest %016x/%016x events %d/%d skipped %d/%d cycles %d/%d instructions %d/%d",
			r.digest, ref.digest, r.events, ref.events, r.skipped, ref.skipped, r.cycles, ref.cycles,
			r.instructions, ref.instructions))
	}
}

// report prints one run's line of the report and any check it failed.
func (r *simRun) report(w io.Writer, label string) {
	if r.err != nil {
		fmt.Fprintf(w, "%s: error: %v\n", label, r.err)
		return
	}
	fmt.Fprintf(w, "%s: setup %.2f ms, warmup %.3f s, roi %.3f s, %d instructions, %.1f KIPS (%.3f CPU s; %.1f KIPS by the wall clock), simulated IPC %.4f, digest %016x, events %d, skipped cycles %d\n",
		label, 1e3*r.setup.Seconds(), r.warmup.Seconds(), r.roi.Seconds(), r.instructions, r.kips(), r.cpu.Seconds(), r.wallKIPS(), r.res.IPC, r.digest, r.events, r.skipped)
	for _, f := range r.failures {
		fmt.Fprintf(w, "%s: check failed: %s\n", label, f)
	}
}

// okRuns returns the runs that passed every check.
func okRuns(runs []*simRun) []*simRun {
	var ok []*simRun
	for _, r := range runs {
		if len(r.failures) == 0 {
			ok = append(ok, r)
		}
	}
	return ok
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// cpuModel returns the first "model name" of a /proc/cpuinfo text.
func cpuModel(cpuinfo string) string {
	for _, l := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
