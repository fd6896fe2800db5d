package schemes

import (
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// TiD line geometry: 1 KB cache lines (16 sub-blocks), 4-way set-associative
// with an ideal way predictor (§IV-A).
const (
	tidLineBits   = 10
	tidLineSize   = 1 << tidLineBits
	tidSubPerLine = tidLineSize / mem.BlockSize // 16
	tidWays       = 4
)

// TiDConfig sizes the HW-based scheme.
//
//nomad:owner host
type TiDConfig struct {
	// CapacityBytes is the DRAM cache capacity (same on-package DRAM as
	// the OS-managed schemes).
	CapacityBytes uint64
	MSHRs         int
}

// TiDStats counts HW-scheme events beyond AccessStats.
//
//nomad:owner channel
type TiDStats struct {
	Hits       uint64
	Misses     uint64
	Coalesced  uint64
	Writebacks uint64
	MSHRStalls uint64
}

// MissRate returns misses / (hits + misses).
func (s *TiDStats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

//nomad:owner channel
//nomad:ephemeral tag array working state; divergence surfaces in the registered tid.* counters
type tidLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type tidWaiter struct {
	si    uint // sub-block within the line
	write bool
	done  mem.Done
}

//nomad:owner channel
//nomad:ephemeral tag MSHR working state; divergence surfaces in the registered tid.* counters
type tidMSHR struct {
	t        *TiD
	lineAddr uint64 // PA >> tidLineBits
	set      uint64
	way      int
	arrived  uint32 // bitmap of fetched sub-blocks
	issued   uint32
	inFlight int
	writes   int
	waiters  []tidWaiter
	dirty    bool // any coalesced write
}

type tidPending struct {
	req  mem.Request
	done mem.Done
}

// TiD is the HW-based DRAM cache: tags live in the on-package DRAM, so
// every access spends on-package bandwidth on metadata reads and updates
// (Fig. 1a); misses are handled non-blocking by MSHRs with
// critical-data-first early restart. This is the tag-management mechanism
// of Unison Cache with a 1 KB line, 4 ways, and an ideal way predictor.
//
//nomad:owner channel
type TiD struct {
	eng      *sim.Engine
	hbm, ddr *dram.Device
	mm       *osmem.Manager
	walk     uint64

	//nomad:ephemeral tag-engine working state; divergence surfaces in the registered tid.* counters
	sets    [][]tidLine
	numSets uint64
	//nomad:ephemeral tag-engine working state; divergence surfaces in the registered tid.* counters
	mshrs   map[uint64]*tidMSHR
	maxMSHR int
	//nomad:ephemeral tag-engine working state; divergence surfaces in the registered tid.* counters
	pending []tidPending
	//nomad:ephemeral tag-engine working state; divergence surfaces in the registered tid.* counters
	lruTick  uint64
	metaBase uint64

	stats    AccessStats
	tidStats TiDStats
	spanTap
}

// NewTiD builds the HW-based scheme.
func NewTiD(eng *sim.Engine, hbm, ddr *dram.Device, mm *osmem.Manager, walkLatency uint64, cfg TiDConfig) *TiD {
	lines := cfg.CapacityBytes / tidLineSize
	numSets := lines / tidWays
	if numSets == 0 {
		numSets = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 32
	}
	t := &TiD{
		eng: eng, hbm: hbm, ddr: ddr, mm: mm, walk: walkLatency,
		sets:     make([][]tidLine, numSets),
		numSets:  numSets,
		mshrs:    make(map[uint64]*tidMSHR),
		maxMSHR:  cfg.MSHRs,
		metaBase: cfg.CapacityBytes, // metadata region above the data array
		spanTap:  spanTap{now: eng.Now},
	}
	// One backing array for every set keeps set-up to a single allocation.
	backing := make([]tidLine, numSets*tidWays)
	for i := range t.sets {
		t.sets[i] = backing[i*tidWays : (i+1)*tidWays : (i+1)*tidWays]
	}
	return t
}

// Name implements Scheme.
func (t *TiD) Name() string { return "TiD" }

func (t *TiD) lineOf(addr uint64) (lineAddr, set, tag uint64) {
	lineAddr = addr >> tidLineBits
	set = lineAddr % t.numSets
	tag = lineAddr / t.numSets
	return
}

// dataAddr maps (set, way, offset) into the on-package data array.
func (t *TiD) dataAddr(set uint64, way int, offset uint64) uint64 {
	return (set*tidWays+uint64(way))<<tidLineBits | (offset & (tidLineSize - 1))
}

// metaAddr is the on-package address of a set's tag/state block.
func (t *TiD) metaAddr(set uint64) uint64 {
	return t.metaBase + set*mem.BlockSize
}

// Access implements Scheme. All post-LLC traffic is physical-space (TiD
// keeps conventional translation); the DC controller probes tags in the
// on-package DRAM on every access.
//
//nomad:port post-LLC access entry: the core side hands the request to the channel-side scheme engine
func (t *TiD) Access(req *mem.Request, done mem.Done) {
	addr := mem.Untag(req.Addr)
	if req.Write {
		t.stats.Writes++
	} else {
		t.stats.CacheSpaceReads++
		done = t.stats.recordRead(t.now, done)
	}
	done = t.wrap(req.Probe, metrics.SpanScheme, done)
	t.lookup(mem.Request{Addr: addr, Write: req.Write, Kind: req.Kind,
		Core: req.Core, Probe: req.Probe}, done)
}

func (t *TiD) lookup(req mem.Request, done mem.Done) {
	lineAddr, set, tag := t.lineOf(req.Addr)

	// Tag probe: one 64 B metadata read per access. The ideal way
	// predictor lets the data access proceed in parallel, so the probe
	// costs bandwidth, not serialized latency (§II-A).
	t.hbm.Access(t.metaAddr(set), false, mem.KindMetadata, false, nil)

	ways := t.sets[set]
	for w := range ways {
		l := &ways[w]
		if l.valid && l.tag == tag {
			t.tidStats.Hits++
			t.lruTick++
			l.lru = t.lruTick
			if req.Write {
				l.dirty = true
			}
			da := t.dataAddr(set, w, req.Addr)
			t.hbm.AccessProbe(da, req.Write, mem.KindDemand, false, req.Probe,
				t.wrap(req.Probe, metrics.SpanHBM, done))
			// LRU/dirty metadata update.
			t.hbm.Access(t.metaAddr(set), true, mem.KindMetadata, false, nil)
			return
		}
	}
	t.miss(req, lineAddr, set, done)
}

func (t *TiD) miss(req mem.Request, lineAddr, set uint64, done mem.Done) {
	t.tidStats.Misses++
	si := uint((req.Addr >> mem.BlockBits) & (tidSubPerLine - 1))
	if m, ok := t.mshrs[lineAddr]; ok {
		t.tidStats.Coalesced++
		if m.arrived&(1<<si) != 0 {
			// Sub-block already fetched: early-restart hit on the
			// in-fill line.
			da := t.dataAddr(m.set, m.way, req.Addr)
			t.hbm.AccessProbe(da, req.Write, mem.KindDemand, false, req.Probe,
				t.wrap(req.Probe, metrics.SpanHBM, done))
			if req.Write {
				m.dirty = true
			}
			return
		}
		m.waiters = append(m.waiters, tidWaiter{si: si, write: req.Write, done: done})
		if req.Probe != nil {
			// Parked in the DC MSHR until the sub-block lands.
			req.Probe.SetCause(mem.StallMSHR)
		}
		if req.Write {
			m.dirty = true
		}
		// Critical-data-first applies to every demanded sub-block, not
		// just the one that opened the MSHR: fetch it out of band, or
		// promote the already-issued fill read to the priority class.
		if m.issued&(1<<si) == 0 {
			t.fetchSub(m, si, true, req.Probe)
		} else {
			t.ddr.Promote(m.lineAddr<<tidLineBits | uint64(si)*mem.BlockSize)
		}
		return
	}
	if len(t.mshrs) >= t.maxMSHR {
		t.tidStats.MSHRStalls++
		if req.Probe != nil {
			req.Probe.SetCause(mem.StallMSHR)
		}
		t.pending = append(t.pending, tidPending{req: req, done: done})
		return
	}

	// Victim selection and eviction (writeback of the whole 1 KB line if
	// dirty), then allocation.
	ways := t.sets[set]
	way := 0
	oldest := ^uint64(0)
	for w := range ways {
		if !ways[w].valid {
			way = w
			oldest = 0
			break
		}
		if ways[w].lru < oldest {
			oldest = ways[w].lru
			way = w
		}
	}
	v := &ways[way]
	if v.valid && v.dirty {
		t.tidStats.Writebacks++
		victimLine := v.tag*t.numSets + set
		for s := uint64(0); s < tidSubPerLine; s++ {
			src := t.dataAddr(set, way, s*mem.BlockSize)
			dst := victimLine<<tidLineBits | s*mem.BlockSize
			t.hbm.Access(src, false, mem.KindWriteback, false, func() {
				t.ddr.Access(dst, true, mem.KindWriteback, false, nil)
			})
		}
	}
	v.valid = false
	v.dirty = false

	m := &tidMSHR{t: t, lineAddr: lineAddr, set: set, way: way}
	m.waiters = append(m.waiters, tidWaiter{si: si, write: req.Write, done: done})
	m.dirty = req.Write
	t.mshrs[lineAddr] = m

	// Critical-data-first: fetch the demanded sub-block with priority,
	// then the rest of the line. The demand's probe rides the priority
	// fetch so its stall cycles attribute to the DDR path, not the MSHR.
	t.fetchSub(m, si, true, req.Probe)
	t.issueFills(m)
}

// issueFills keeps up to eight line-fill reads outstanding.
func (t *TiD) issueFills(m *tidMSHR) {
	for m.inFlight < 8 {
		var si uint
		found := false
		for s := uint(0); s < tidSubPerLine; s++ {
			if m.issued&(1<<s) == 0 {
				si = s
				found = true
				break
			}
		}
		if !found {
			return
		}
		t.fetchSub(m, si, false, nil)
	}
}

// Completion-argument packing for tidMSHR.Complete: bit 0 distinguishes a
// sub-block read arriving from off-package memory from a fill write landing
// in the data array; a read's higher bits carry its sub-block index.
const (
	tidFillWritten = uint64(0)
	tidSubArrived  = uint64(1)
)

// Complete implements dram.Completer, so the line fill's reads and writes
// complete through the MSHR itself instead of a closure per sub-block.
func (m *tidMSHR) Complete(arg uint64) {
	if arg&1 == tidSubArrived {
		m.t.subArrived(m, uint(arg>>1))
		return
	}
	m.writes++
	if m.writes == tidSubPerLine {
		m.t.fillComplete(m)
	}
}

// fetchSub reads sub-block si of the line from off-package memory. A
// demand's fetch carries its probe (and, when sampled, a span) through a
// closure; the line-fill reads complete through the MSHR.
func (t *TiD) fetchSub(m *tidMSHR, si uint, priority bool, p *mem.Probe) {
	if m.issued&(1<<si) != 0 {
		return
	}
	m.issued |= 1 << si
	m.inFlight++
	src := m.lineAddr<<tidLineBits | uint64(si)*mem.BlockSize
	if p == nil {
		t.ddr.AccessArg(src, false, mem.KindFill, priority, m, uint64(si)<<1|tidSubArrived)
		return
	}
	t.ddr.AccessProbe(src, false, mem.KindFill, priority, p,
		t.wrap(p, metrics.SpanDDR, func() {
			t.subArrived(m, si)
		}))
}

func (t *TiD) subArrived(m *tidMSHR, si uint) {
	m.inFlight--
	m.arrived |= 1 << si
	// Fill the sub-block into the data array.
	da := t.dataAddr(m.set, m.way, uint64(si)*mem.BlockSize)
	t.hbm.AccessArg(da, true, mem.KindFill, false, m, tidFillWritten)
	// Early restart: serve waiters for this sub-block.
	kept := m.waiters[:0]
	for _, w := range m.waiters {
		if w.si == si {
			wa := t.dataAddr(m.set, m.way, uint64(w.si)*mem.BlockSize)
			t.hbm.Access(wa, w.write, mem.KindDemand, false, w.done)
		} else {
			kept = append(kept, w)
		}
	}
	m.waiters = kept
	t.issueFills(m)
}

func (t *TiD) fillComplete(m *tidMSHR) {
	l := &t.sets[m.set][m.way]
	t.lruTick++
	*l = tidLine{tag: m.lineAddr / t.numSets, valid: true, dirty: m.dirty, lru: t.lruTick}
	// Tag install / state update.
	t.hbm.Access(t.metaAddr(m.set), true, mem.KindMetadata, false, nil)
	delete(t.mshrs, m.lineAddr)
	if len(t.pending) > 0 {
		p := t.pending[0]
		t.pending = t.pending[1:]
		t.eng.Schedule(0, func() { t.lookup(p.req, p.done) })
	}
}

// Walker implements Scheme: conventional translation only.
func (t *TiD) Walker() tlb.Walker { return tidWalker{t} }

type tidWalker struct{ t *TiD }

//nomad:port page-walk entry: the core-side TLB asks the channel-side OS engine to translate
func (w tidWalker) Walk(coreID int, vaddr uint64, done func(tlb.Entry)) {
	w.t.eng.Schedule(w.t.walk, func() {
		vpn := mem.PageNum(vaddr)
		pte := w.t.mm.PTEOf(coreID, vpn)
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpacePhysical})
	})
}

// Directory implements Scheme.
func (t *TiD) Directory() tlb.Directory { return nil }

// NoteStore implements Scheme.
func (t *TiD) NoteStore(coreID int, e tlb.Entry) {}

// Drained implements Scheme.
func (t *TiD) Drained() bool { return len(t.mshrs) == 0 }

// AccessStats returns the scheme's DC-controller statistics.
func (t *TiD) AccessStats() *AccessStats { return &t.stats }

// TiDStats returns the HW-scheme counters.
func (t *TiD) TiDStats() *TiDStats { return &t.tidStats }
