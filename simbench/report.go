package main

import (
	"fmt"
	"io"

	"nomad/internal/system"
)

// count is one exact work count: a numerator over its base, both printed.
type count struct {
	name      string
	num, base uint64
	scale     float64 // ratio = scale × num / base
	unit      string
}

// layerMetrics derives the per-layer metrics from the timed runs (runtime
// work), the traced run (host shares, phase spans, exact counts) and the
// layer drivers, printing each block of the report as it goes.
func layerMetrics(w io.Writer, cfg system.Config, timed []*simRun, traced *simRun, drv drivers) (map[string]metric, error) {
	out := map[string]metric{}
	res, snap := traced.res, traced.res.Metrics

	// Exact counts. Model counters cover the ROI and are taken per ROI
	// kilo-instruction; engine counters cover warmup plus ROI, as host time
	// does, and are taken per kilo-instruction of the whole run.
	sum := func(format string) uint64 {
		var t uint64
		for i := 0; i < cfg.Cores; i++ {
			t += snap.Counter(fmt.Sprintf(format, i))
		}
		return t
	}
	coreCycles := res.Cycles * uint64(res.Cores)
	roi, all := res.Instructions, traced.instructions
	counts := []count{
		{"sim.events_per_kinstr", traced.events, all, 1e3, "events/kinstr"},
		{"sim.skip_ratio", traced.skipped, traced.cycles, 1, "share"},
		{"cpu.stalled_cycle_share", sum("core.%d.os_blocked_cycles") + sum("core.%d.mem_stall_cycles") + sum("core.%d.front_stall_cycles"), coreCycles, 1, "share"},
		{"cpu.os_blocked_share", sum("core.%d.os_blocked_cycles"), coreCycles, 1, "share"},
		{"cache.l1_misses_per_kinstr", sum("cache.l1.%d.misses"), roi, 1e3, "1/kinstr"},
		{"cache.llc_misses_per_kinstr", snap.Counter("cache.llc.misses"), roi, 1e3, "1/kinstr"},
		{"tlb.walks_per_kinstr", sum("tlb.%d.walks"), roi, 1e3, "1/kinstr"},
		{"tlb.l2_hits_per_kinstr", sum("tlb.%d.l2_hits"), roi, 1e3, "1/kinstr"},
		{"dram.hbm_accesses_per_kinstr", snap.Counter("hbm.reads") + snap.Counter("hbm.writes"), roi, 1e3, "1/kinstr"},
		{"dram.ddr_accesses_per_kinstr", snap.Counter("ddr.reads") + snap.Counter("ddr.writes"), roi, 1e3, "1/kinstr"},
		{"dram.hbm_row_hit_rate", snap.Counter("hbm.row_hits"), snap.Counter("hbm.row_hits") + snap.Counter("hbm.row_misses") + snap.Counter("hbm.row_conflicts"), 1, "share"},
		{"core.fills_per_kinstr", snap.Counter("backend.fills"), roi, 1e3, "1/kinstr"},
		{"osmem.tag_misses_per_kinstr", res.TagMisses, roi, 1e3, "1/kinstr"},
		{"osmem.evictions_per_kinstr", res.Evictions, roi, 1e3, "1/kinstr"},
		{"schemes.reads_per_kinstr", snap.Counter("scheme.reads"), roi, 1e3, "1/kinstr"},
	}
	fmt.Fprintf(w, "exact counts (identical on every run of a seed; ROI counters over %d ROI instructions, engine counters over %d warmup+ROI instructions):\n", roi, all)
	for _, c := range counts {
		v := 0.0
		if c.base > 0 {
			v = c.scale * float64(c.num) / float64(c.base)
		}
		out[c.name] = metric{v, c.unit}
		fmt.Fprintf(w, "  %-30s %12d / %12d = %.6g %s\n", c.name, c.num, c.base, v, c.unit)
	}
	out["sim.instructions"] = metric{float64(all), "count"}
	out["sim.roi_instructions"] = metric{float64(roi), "count"}
	out["sim.events"] = metric{float64(traced.events), "count"}
	out["sim.cycles"] = metric{float64(traced.cycles), "count"}
	out["sim.ipc"] = metric{res.IPC, "instr/cycle"}
	fmt.Fprintf(w, "outputs: simulated IPC %.6f, outcome digest %016x, %d events, %d skipped of %d cycles\n",
		res.IPC, traced.digest, traced.events, traced.skipped, traced.cycles)

	// Go runtime work per simulation, medians over the timed runs.
	var mallocs, bytes, gcs, walls []float64
	for _, r := range timed {
		k := float64(r.instructions) / 1e3
		mallocs = append(mallocs, float64(r.mallocs)/k)
		bytes = append(bytes, float64(r.allocBytes)/k)
		gcs = append(gcs, float64(r.gcCycles))
		walls = append(walls, r.total.Seconds())
	}
	out["runtime.mallocs_per_kinstr"] = metric{median(mallocs), "1/kinstr"}
	out["runtime.alloc_bytes_per_kinstr"] = metric{median(bytes), "B/kinstr"}
	out["runtime.gc_cycles"] = metric{median(gcs), "count"}
	fmt.Fprintf(w, "runtime per simulation (median of %d timed runs): %.2f mallocs/kinstr, %.1f B/kinstr, %.0f GC cycles\n",
		len(timed), median(mallocs), median(bytes), median(gcs))

	// Host time by layer, from the traced run's CPU profile.
	byLayer, samples, err := foldProfile(traced.profile)
	if err != nil {
		return nil, err
	}
	if samples == 0 {
		return nil, fmt.Errorf("traced run recorded no CPU samples")
	}
	fmt.Fprintf(w, "host share by layer (traced run, %d samples):", samples)
	for _, l := range layers {
		s := float64(byLayer[l]) / float64(samples)
		out[l+".host_share"] = metric{s, "share"}
		fmt.Fprintf(w, " %s %.1f%%", l, 100*s)
	}
	fmt.Fprintln(w)
	out["trace.samples"] = metric{float64(samples), "count"}
	overhead := 100 * (traced.total.Seconds()/median(walls) - 1)
	out["trace.overhead_pct"] = metric{overhead, "%"}
	out["phase.setup_s"] = metric{traced.setup.Seconds(), "s"}
	out["phase.warmup_s"] = metric{traced.warmup.Seconds(), "s"}
	out["phase.roi_s"] = metric{traced.roi.Seconds(), "s"}
	fmt.Fprintf(w, "traced run phases: setup %.6f s, warmup %.3f s, roi %.3f s; tracing overhead %.1f%% of the untraced median\n",
		traced.setup.Seconds(), traced.warmup.Seconds(), traced.roi.Seconds(), overhead)

	// Layer drivers.
	fmt.Fprint(w, "layer drivers (ns/op, allocs/op):")
	for _, name := range []string{"sim.event", "cpu.tick", "cache.access", "tlb.translate", "dram.access", "workload.next"} {
		d := drv[name]
		out[name+"_ns"] = metric{d.nsPerOp, "ns"}
		fmt.Fprintf(w, " %s %.1f/%.3f", name, d.nsPerOp, d.allocsPerOp)
	}
	fmt.Fprintln(w)
	for _, name := range []string{"cache.access", "tlb.translate", "dram.access"} {
		out[name+"_allocs"] = metric{drv[name].allocsPerOp, "allocs/op"}
	}
	return out, nil
}
