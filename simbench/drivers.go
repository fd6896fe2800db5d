package main

import (
	"fmt"
	"runtime"
	"time"

	"nomad/internal/cache"
	"nomad/internal/core"
	"nomad/internal/cpu"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/sim"
	"nomad/internal/system"
	"nomad/internal/tlb"
	"nomad/internal/workload"
)

// Layer drivers: each layer built alone from the default machine's
// configuration, a fixed-latency fake below it, and the workload's own
// generated stream as its input, so hit rates in the driver follow the
// workload. Each reports host ns and heap allocations per call of the
// layer's public entry point.

const (
	driverWarmOps = 50_000  // untimed calls that fill pools, caches and TLBs
	driverOps     = 300_000 // timed calls, split into driverReps repetitions
	driverReps    = 5
	driverChunk   = 4096 // stream ops generated untimed between timed spans

	// fakeMemLatency is the fixed cycles the fake memory below the core
	// and the cache hierarchy takes for every access; the DRAM driver's
	// demand is capped at the LLC's MSHR count.
	fakeMemLatency = 150
)

// driverResult is one layer driver's reading.
type driverResult struct {
	nsPerOp, allocsPerOp float64
}

// drivers holds every layer driver's reading, keyed by metric prefix.
type drivers map[string]driverResult

func runDrivers(spec workload.Spec, cfg system.Config, seed uint64) (drivers, error) {
	out := drivers{}
	var err error
	if out["sim.event"], err = driveSim(spec, seed); err != nil {
		return nil, err
	}
	if out["cpu.tick"], err = driveCPU(spec, cfg, seed); err != nil {
		return nil, err
	}
	if out["cache.access"], err = driveCache(spec, cfg, seed); err != nil {
		return nil, err
	}
	if out["tlb.translate"], err = driveTLB(spec, cfg, seed); err != nil {
		return nil, err
	}
	if out["dram.access"], err = driveDRAM(spec, cfg, seed); err != nil {
		return nil, err
	}
	out["workload.next"] = driveStream(spec, seed)
	return out, nil
}

// measure calls run(driverWarmOps) untimed, then run(driverOps/driverReps)
// driverReps times. run makes n calls of the layer's entry point and returns
// the host time they took. It returns the median repetition's ns per call
// and the heap allocations per call over all repetitions.
func measure(run func(n int) time.Duration) driverResult {
	run(driverWarmOps)
	per := driverOps / driverReps
	ns := make([]float64, driverReps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range ns {
		ns[i] = float64(run(per).Nanoseconds()) / float64(per)
	}
	runtime.ReadMemStats(&ms1)
	return driverResult{median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(per*driverReps)}
}

// feed measures step, called once per op of a fresh stream. Ops are
// generated in untimed chunks so the generator's cost stays out of the
// layer's reading.
func feed(spec workload.Spec, seed uint64, step func(workload.Op)) driverResult {
	stream := workload.NewStream(spec, seed)
	buf := make([]workload.Op, driverChunk)
	return measure(func(n int) time.Duration {
		var d time.Duration
		for n > 0 {
			k := min(n, len(buf))
			for i := range buf[:k] {
				buf[i] = stream.Next()
			}
			t := time.Now()
			for _, o := range buf[:k] {
				step(o)
			}
			d += time.Since(t)
			n -= k
		}
		return d
	})
}

// driveSim times sim.Engine.Schedule plus Step: every op schedules one
// event its gap+1 cycles out and advances the clock one cycle, so about one
// event runs per call.
func driveSim(spec workload.Spec, seed uint64) (driverResult, error) {
	eng := sim.New()
	var fired uint64
	fn := func() { fired++ }
	var scheduled uint64
	r := feed(spec, seed, func(o workload.Op) {
		eng.Schedule(1+o.Gap, fn)
		scheduled++
		eng.Step()
	})
	eng.Run(1 << 20)
	if fired != scheduled || eng.Pending() != 0 {
		return r, fmt.Errorf("sim driver: %d of %d events ran", fired, scheduled)
	}
	return r, nil
}

// fakePort is a memory port whose loads complete fakeMemLatency cycles
// after the load, in load order; stores vanish into the store buffer.
type fakePort struct {
	now  uint64
	due  [256]uint64 // ring; a core has at most MaxLoads loads in flight
	done [256]func()
	head int
	n    int
}

func (p *fakePort) Load(_ int, _ uint64, _ *mem.Probe, done func()) {
	i := (p.head + p.n) % len(p.due)
	p.due[i], p.done[i] = p.now+fakeMemLatency, done
	p.n++
}

func (p *fakePort) Store(int, uint64) {}

// deliver completes every load due by now.
func (p *fakePort) deliver() {
	for p.n > 0 && p.due[p.head] <= p.now {
		d := p.done[p.head]
		p.done[p.head] = nil
		p.head = (p.head + 1) % len(p.due)
		p.n--
		d()
	}
}

// driveCPU times cpu.Core.Tick on a core (with the workload's MLP cap, as
// system.New applies it) whose memory answers every load in fakeMemLatency
// cycles. The core pulls its instructions from the stream itself.
func driveCPU(spec workload.Spec, cfg system.Config, seed uint64) (driverResult, error) {
	coreCfg := cfg.Core
	if spec.MLP > 0 && spec.MLP < coreCfg.MaxLoads {
		coreCfg.MaxLoads = spec.MLP
	}
	port := &fakePort{}
	c := cpu.New(0, coreCfg, port, workload.NewStream(spec, seed))
	r := measure(func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			port.now++
			port.deliver()
			c.Tick(port.now)
		}
		return time.Since(t)
	})
	if c.Stats().Instructions == 0 {
		return r, fmt.Errorf("cpu driver: core retired nothing in %d ticks", port.now)
	}
	return r, nil
}

// fixedMem is a cache.Lower answering every access after a fixed latency.
type fixedMem struct {
	eng *sim.Engine
	lat uint64
}

func (f fixedMem) Access(_ *mem.Request, done mem.Done) {
	if done != nil {
		f.eng.Schedule(f.lat, done)
	}
}

// pacer sends driver accesses one per cycle with at most limit outstanding,
// fast-forwarding the engine to the next completion when the limit is hit.
type pacer struct {
	eng         *sim.Engine
	limit       int
	outstanding int
	sent        uint64
	completed   uint64
	doneFn      func()
}

func newPacer(eng *sim.Engine, limit int) *pacer {
	p := &pacer{eng: eng, limit: limit}
	p.doneFn = func() { p.outstanding--; p.completed++ }
	return p
}

// send waits for a free slot, runs access, then advances one cycle.
func (p *pacer) send(access func()) {
	if p.outstanding >= p.limit {
		p.eng.RunUntil(func() bool { return p.outstanding < p.limit }, 1<<32)
	}
	p.outstanding++
	p.sent++
	access()
	p.eng.Step()
}

// drain runs the engine until every access sent has completed.
func (p *pacer) drain(layer string) error {
	p.eng.RunUntil(func() bool { return p.outstanding == 0 }, 1<<32)
	if p.completed != p.sent {
		return fmt.Errorf("%s driver: %d of %d accesses completed", layer, p.completed, p.sent)
	}
	return nil
}

// driveCache times cache.Cache.Access on the default L1→L2→LLC hierarchy
// over a fixed-latency memory, with the core's outstanding-load limit.
func driveCache(spec workload.Spec, cfg system.Config, seed uint64) (driverResult, error) {
	eng := sim.New()
	llc := cache.New(eng, cfg.LLC, fixedMem{eng, fakeMemLatency})
	l1 := cache.New(eng, cfg.L1, cache.New(eng, cfg.L2, llc))
	p := newPacer(eng, cfg.Core.MaxLoads)
	var req mem.Request
	r := feed(spec, seed, func(o workload.Op) {
		p.send(func() {
			req = mem.Request{Addr: o.Addr, Write: o.Write, Kind: mem.KindDemand}
			l1.Access(&req, p.doneFn)
		})
	})
	return r, p.drain("cache")
}

// fakeWalker resolves every TLB miss after the default walk latency with
// an identity translation; its in-flight walks are pooled so it allocates
// nothing in steady state.
type fakeWalker struct {
	eng  *sim.Engine
	lat  uint64
	free []*fakeWalk
}

type fakeWalk struct {
	e    tlb.Entry
	done func(tlb.Entry)
	fn   func()
}

func (w *fakeWalker) Walk(_ int, vaddr uint64, done func(tlb.Entry)) {
	var op *fakeWalk
	if n := len(w.free); n > 0 {
		op, w.free = w.free[n-1], w.free[:n-1]
	} else {
		op = &fakeWalk{}
		op.fn = func() {
			d, e := op.done, op.e
			op.done = nil
			w.free = append(w.free, op)
			d(e)
		}
	}
	vpn := mem.PageNum(vaddr)
	op.e = tlb.Entry{VPN: vpn, Frame: vpn, Space: mem.SpacePhysical}
	op.done = done
	w.eng.Schedule(w.lat, op.fn)
}

type nopDirectory struct{}

func (nopDirectory) TLBInserted(int, tlb.Entry) {}
func (nopDirectory) TLBEvicted(int, tlb.Entry)  {}

// driveTLB times tlb.TLB.Translate on the default two-level TLB over a
// fixed-latency page walker.
func driveTLB(spec workload.Spec, cfg system.Config, seed uint64) (driverResult, error) {
	eng := sim.New()
	t := tlb.New(eng, 0, cfg.TLB, &fakeWalker{eng: eng, lat: core.DefaultFrontendConfig().WalkLatency}, nopDirectory{})
	p := newPacer(eng, cfg.Core.MaxLoads)
	done := func(tlb.Entry) { p.doneFn() }
	r := feed(spec, seed, func(o workload.Op) {
		p.send(func() { t.Translate(o.Addr, done) })
	})
	return r, p.drain("tlb")
}

// driveDRAM times dram.Device.Access plus the device Ticks the engine runs
// on the default HBM, at most one LLC's worth of MSHRs outstanding.
func driveDRAM(spec workload.Spec, cfg system.Config, seed uint64) (driverResult, error) {
	eng := sim.New()
	d := dram.New(eng, cfg.HBM)
	p := newPacer(eng, cfg.LLC.MSHRs)
	r := feed(spec, seed, func(o workload.Op) {
		p.send(func() { d.Access(o.Addr, o.Write, mem.KindDemand, false, p.doneFn) })
	})
	return r, p.drain("dram")
}

var sinkOp workload.Op

// driveStream times workload.Stream.Next.
func driveStream(spec workload.Spec, seed uint64) driverResult {
	s := workload.NewStream(spec, seed)
	return measure(func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			sinkOp = s.Next()
		}
		return time.Since(t)
	})
}
