package schemes

import (
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// Baseline models a traditional system with only off-package memory: the
// lower bound of DRAM cache performance (§IV-A). Every post-LLC access goes
// to DDR; translation is a plain page-table walk.
type Baseline struct {
	eng   *sim.Engine
	ddr   *dram.Device
	mm    *osmem.Manager
	walk  uint64
	stats AccessStats
	spanTap
}

// NewBaseline builds the baseline scheme.
func NewBaseline(eng *sim.Engine, ddr *dram.Device, mm *osmem.Manager, walkLatency uint64) *Baseline {
	return &Baseline{eng: eng, ddr: ddr, mm: mm, walk: walkLatency, spanTap: spanTap{now: eng.Now}}
}

// Name implements Scheme.
func (b *Baseline) Name() string { return "Baseline" }

// Access implements Scheme.
//
//nomad:port post-LLC access entry: the core side hands the request to the channel-side scheme engine
func (b *Baseline) Access(req *mem.Request, done mem.Done) {
	if req.Write {
		b.stats.Writes++
	} else {
		b.stats.PhysSpaceReads++
		done = b.stats.recordRead(b.now, done)
	}
	done = b.wrap(req.Probe, metrics.SpanDDR, done)
	b.ddr.AccessProbe(mem.Untag(req.Addr), req.Write, req.Kind, req.Priority, req.Probe, done)
}

// Walker implements Scheme.
func (b *Baseline) Walker() tlb.Walker { return baselineWalker{b} }

type baselineWalker struct{ b *Baseline }

//nomad:port page-walk entry: the core-side TLB asks the channel-side OS engine to translate
func (w baselineWalker) Walk(coreID int, vaddr uint64, done func(tlb.Entry)) {
	w.b.eng.Schedule(w.b.walk, func() {
		vpn := mem.PageNum(vaddr)
		pte := w.b.mm.PTEOf(coreID, vpn)
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpacePhysical})
	})
}

// Directory implements Scheme.
func (b *Baseline) Directory() tlb.Directory { return nil }

// NoteStore implements Scheme.
func (b *Baseline) NoteStore(coreID int, e tlb.Entry) {}

// Drained implements Scheme.
func (b *Baseline) Drained() bool { return true }

// AccessStats returns the scheme's DC-controller statistics.
func (b *Baseline) AccessStats() *AccessStats { return &b.stats }
