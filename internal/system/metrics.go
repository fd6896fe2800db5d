package system

import (
	"fmt"

	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/schemes"
)

// registerMetrics builds the machine's stats registry and wires every
// component into it. Registration is lazy (closures over live counters), so
// the simulation hot paths are untouched; only histograms and the optional
// trace write during simulation, into fixed pre-allocated storage.
//
// The naming scheme (documented in DESIGN.md) is a dotted lowercase path:
//
//	core.<i>.*     per-CPU retirement and stall counters
//	cache.l1.<i>.* / cache.l2.<i>.* / cache.llc.*   SRAM hierarchy
//	hbm.* / ddr.*  DRAM devices (incl. per-bank row-buffer outcomes)
//	scheme.*       post-LLC access path of the scheme under test
//	frontend.*     OS tag-management routines (TDC, NOMAD)
//	backend.*      PCSHR/copy-buffer hardware (NOMAD)
//	sim.* / os.*   whole-machine time series
func (m *Machine) registerMetrics() {
	window := m.cfg.SampleWindow
	if window == 0 {
		window = DefaultSampleWindow
	}
	reg := metrics.NewRegistry(window)
	m.reg = reg
	// The timeline filter must precede every IntervalFunc registration
	// (components below register their own timeline columns).
	reg.SetTimelineFilter(m.cfg.TimelineMetrics)
	if m.cfg.TraceDepth > 0 {
		reg.EnableTrace(m.cfg.TraceDepth)
	}
	if m.cfg.SpanDepth > 0 {
		reg.EnableSpans(m.cfg.SpanDepth)
		for _, c := range m.cores {
			c.SetSpanTracing(reg.Spans(), m.cfg.SpanSampleEvery)
		}
	}

	for i, c := range m.cores {
		s := c.Stats()
		p := fmt.Sprintf("core.%d", i)
		reg.CounterFunc(p+".instructions", func() uint64 { return s.Instructions })
		reg.CounterFunc(p+".cycles", func() uint64 { return s.Cycles })
		reg.CounterFunc(p+".loads", func() uint64 { return s.Loads })
		reg.CounterFunc(p+".stores", func() uint64 { return s.Stores })
		reg.CounterFunc(p+".mem_ops", func() uint64 { return s.MemOps })
		reg.CounterFunc(p+".os_blocked_cycles", func() uint64 { return s.OSBlockedCycles })
		reg.CounterFunc(p+".mem_stall_cycles", func() uint64 { return s.MemStallCycles })
		reg.CounterFunc(p+".front_stall_cycles", func() uint64 { return s.FrontStallCycles })
		reg.CounterFunc(p+".os_block_events", func() uint64 { return s.OSBlockEvents })

		// CPI stack (Fig. 11): named buckets that partition every retired
		// ROI cycle. compute absorbs everything the stall counters do not
		// claim; the eight mem.* buckets partition mem_stall_cycles by the
		// cause recorded on the oldest outstanding load each stalled cycle.
		reg.CounterFunc(p+".cpi.compute", func() uint64 {
			return s.Cycles - s.OSBlockedCycles - s.MemStallCycles - s.FrontStallCycles
		})
		reg.CounterFunc(p+".cpi.tag_miss", func() uint64 { return s.OSBlockedCycles })
		reg.CounterFunc(p+".cpi.frontend", func() uint64 { return s.FrontStallCycles })
		for cause := mem.StallCause(0); cause < mem.NumStallCauses; cause++ {
			cause := cause
			reg.CounterFunc(p+".cpi.mem."+cause.String(), func() uint64 {
				return s.MemStallByCause[cause]
			})
		}

		m.tlbs[i].RegisterMetrics(reg, fmt.Sprintf("tlb.%d", i))
	}

	m.llc.RegisterMetrics(reg, "cache.llc")
	m.llc.SetSpans(reg.Spans(), metrics.SpanLLC)
	for i := range m.l1s {
		m.l1s[i].RegisterMetrics(reg, fmt.Sprintf("cache.l1.%d", i))
		m.l2s[i].RegisterMetrics(reg, fmt.Sprintf("cache.l2.%d", i))
		m.l1s[i].SetSpans(reg.Spans(), metrics.SpanL1)
		m.l2s[i].SetSpans(reg.Spans(), metrics.SpanL2)
	}

	m.hbm.RegisterMetrics(reg, "hbm")
	m.ddr.RegisterMetrics(reg, "ddr")
	m.hbm.SetTrace(reg.Trace(), 0)
	m.ddr.SetTrace(reg.Trace(), 1)
	if st, ok := m.scheme.(interface{ SetSpans(*metrics.SpanRing) }); ok {
		st.SetSpans(reg.Spans())
	}

	switch sc := m.scheme.(type) {
	case *schemes.Baseline:
		registerAccess(reg, sc.AccessStats())
	case *schemes.TiD:
		registerAccess(reg, sc.AccessStats())
		t := sc.TiDStats()
		reg.CounterFunc("scheme.tid.hits", func() uint64 { return t.Hits })
		reg.CounterFunc("scheme.tid.misses", func() uint64 { return t.Misses })
		reg.CounterFunc("scheme.tid.coalesced", func() uint64 { return t.Coalesced })
		reg.CounterFunc("scheme.tid.writebacks", func() uint64 { return t.Writebacks })
		reg.CounterFunc("scheme.tid.mshr_stalls", func() uint64 { return t.MSHRStalls })
	case *schemes.TDC:
		registerAccess(reg, sc.AccessStats())
		sc.Frontend().RegisterMetrics(reg, "frontend")
	case *schemes.NOMAD:
		registerAccess(reg, sc.AccessStats())
		sc.Frontend().RegisterMetrics(reg, "frontend")
		sc.Backend().RegisterMetrics(reg, "backend")
	case *schemes.Ideal:
		registerAccess(reg, sc.AccessStats())
		reg.CounterFunc("scheme.tag_misses", func() uint64 { return sc.TagMisses })
		reg.CounterFunc("scheme.would_fill_bytes", func() uint64 { return sc.WouldFillBytes })
	}

	// Whole-machine time series, sampled once per window by the engine.
	var prevInstr, prevCycle uint64
	reg.SeriesFunc("sim.ipc", func(now uint64) float64 {
		var instr uint64
		for _, c := range m.cores {
			instr += c.Stats().Instructions
		}
		d, dc := instr-prevInstr, now-prevCycle
		prevInstr, prevCycle = instr, now
		if dc == 0 {
			return 0
		}
		return float64(d) / float64(dc)
	})
	reg.SeriesFunc("os.free_frames", func(now uint64) float64 {
		return float64(m.mm.FreeFrames())
	})

	// Interval timeline columns (Config.Timeline): the Fig. 14-style
	// transient view. Registration is cheap and sampling is a no-op until
	// BeginTimeline, so these are wired unconditionally; the filter above
	// decides what is kept.
	for i, c := range m.cores {
		s := c.Stats()
		intervalRate(reg, fmt.Sprintf("core.%d.ipc", i), func() uint64 { return s.Instructions })
	}
	intervalRate(reg, "sim.ipc", func() uint64 {
		var instr uint64
		for _, c := range m.cores {
			instr += c.Stats().Instructions
		}
		return instr
	})
	ls := m.llc.Stats()
	intervalRatio(reg, "cache.llc.miss_rate",
		func() uint64 { return ls.Misses },
		func() uint64 { return ls.Hits + ls.Misses })
	reg.IntervalFunc("cache.llc.mshr_occupancy", nil, func(now uint64) float64 {
		return float64(m.llc.OutstandingMSHRs())
	})
	registerDRAMIntervals(reg, "hbm", m.hbm)
	registerDRAMIntervals(reg, "ddr", m.ddr)
	reg.IntervalFunc("os.free_frames", nil, func(now uint64) float64 {
		return float64(m.mm.FreeFrames())
	})

	m.eng.SetSampler(window, reg.Sample)
	m.eng.SetInterval(m.cfg.Interval, m.intervalTick)
}

// intervalRate registers a timeline column whose value is read()'s delta per
// cycle over each interval window (per-core IPC, system IPC).
func intervalRate(reg *metrics.Registry, name string, read func() uint64) {
	var prev, prevCyc uint64
	reg.IntervalFunc(name,
		func(now uint64) { prev, prevCyc = read(), now },
		func(now uint64) float64 {
			v, dc := read(), now-prevCyc
			d := v - prev
			prev, prevCyc = v, now
			if dc == 0 {
				return 0
			}
			return float64(d) / float64(dc)
		})
}

// intervalRatio registers a timeline column tracking delta(num)/delta(den)
// over each window (hit/miss/conflict rates). Windows with no den activity
// read 0.
func intervalRatio(reg *metrics.Registry, name string, num, den func() uint64) {
	var pn, pd uint64
	reg.IntervalFunc(name,
		func(now uint64) { pn, pd = num(), den() },
		func(now uint64) float64 {
			n, d := num(), den()
			dn, dd := n-pn, d-pd
			pn, pd = n, d
			if dd == 0 {
				return 0
			}
			return float64(dn) / float64(dd)
		})
}

// intervalGBs registers a timeline column converting read()'s byte delta per
// window into GB/s at the 3.2 GHz clock.
func intervalGBs(reg *metrics.Registry, name string, read func() uint64) {
	var prev, prevCyc uint64
	reg.IntervalFunc(name,
		func(now uint64) { prev, prevCyc = read(), now },
		func(now uint64) float64 {
			v, dc := read(), now-prevCyc
			d := v - prev
			prev, prevCyc = v, now
			if dc == 0 {
				return 0
			}
			return float64(d) / (float64(dc) / ClockHz) / 1e9
		})
}

// registerDRAMIntervals wires one DRAM device's timeline columns: bandwidth
// by traffic category and the row-buffer conflict rate.
func registerDRAMIntervals(reg *metrics.Registry, prefix string, d *dram.Device) {
	s := d.Stats()
	for k := 0; k < mem.NumKinds; k++ {
		k := k
		intervalGBs(reg, fmt.Sprintf("%s.gbs.%s", prefix, mem.Kind(k)),
			func() uint64 { return s.BytesByKind[k] })
	}
	intervalRatio(reg, prefix+".row_conflict_rate",
		func() uint64 { return s.RowConflicts },
		func() uint64 { return s.RowHits + s.RowMisses + s.RowConflicts })
}

// registerAccess exposes the scheme-agnostic post-LLC access counters, plus
// the dc.hit_rate timeline column (fraction of post-LLC reads served from
// cache space per interval — the DC hit rate, scheme-agnostic).
func registerAccess(reg *metrics.Registry, a *schemes.AccessStats) {
	//nomadlint:ignore ownership -- registration-time wiring: runs once at machine construction before any domain is live
	a.Lat = reg.Histogram("scheme.read_latency")
	reg.CounterFunc("scheme.reads", func() uint64 { return a.Reads })
	reg.CounterFunc("scheme.read_latency_sum", func() uint64 { return a.ReadLatencySum })
	reg.CounterFunc("scheme.writes", func() uint64 { return a.Writes })
	reg.CounterFunc("scheme.cache_space_reads", func() uint64 { return a.CacheSpaceReads })
	reg.CounterFunc("scheme.phys_space_reads", func() uint64 { return a.PhysSpaceReads })
	intervalRatio(reg, "dc.hit_rate",
		func() uint64 { return a.CacheSpaceReads },
		func() uint64 { return a.Reads })
}
