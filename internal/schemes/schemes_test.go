package schemes

import (
	"testing"

	"nomad/internal/check"
	"nomad/internal/core"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

type env struct {
	eng *sim.Engine
	hbm *dram.Device
	ddr *dram.Device
	mm  *osmem.Manager
}

func newEnv(cores int, frames uint64) *env {
	eng := sim.New()
	return &env{
		eng: eng,
		hbm: dram.New(eng, dram.HBMConfig()),
		ddr: dram.New(eng, dram.DDRConfig()),
		mm:  osmem.New(cores, frames),
	}
}

type idleThread struct{ blocked int }

func (t *idleThread) Block()   { t.blocked++ }
func (t *idleThread) Unblock() { t.blocked-- }

func (e *env) threads(n int) []core.Thread {
	ts := make([]core.Thread, n)
	for i := range ts {
		ts[i] = &idleThread{}
	}
	return ts
}

// translate runs a walk to completion.
func translate(t *testing.T, e *env, s Scheme, coreID int, vaddr uint64) tlb.Entry {
	t.Helper()
	var got *tlb.Entry
	s.Walker().Walk(coreID, vaddr, func(en tlb.Entry) { got = &en })
	if !e.eng.RunUntil(func() bool { return got != nil }, 1_000_000) {
		t.Fatal("walk never completed")
	}
	return *got
}

// access issues one post-LLC request and waits for completion.
func access(t *testing.T, e *env, s Scheme, addr uint64, space mem.Space, write bool) {
	t.Helper()
	done := false
	req := mem.Request{Addr: mem.TagSpace(addr, space), Write: write, Kind: mem.KindDemand}
	s.Access(&req, func() { done = true })
	if write {
		e.eng.Run(2000) // writes may carry no completion guarantee
		return
	}
	if !e.eng.RunUntil(func() bool { return done }, 1_000_000) {
		t.Fatal("access never completed")
	}
}

func TestBaselineUsesOnlyDDR(t *testing.T) {
	e := newEnv(1, 64)
	b := NewBaseline(e.eng, e.ddr, e.mm, 100)
	en := translate(t, e, b, 0, 0x3000)
	if en.Space != mem.SpacePhysical {
		t.Fatal("baseline produced a cache-space translation")
	}
	access(t, e, b, mem.AddrInFrame(en.Frame, 0), mem.SpacePhysical, false)
	if e.hbm.Stats().TotalBytes() != 0 {
		t.Fatal("baseline touched on-package DRAM")
	}
	if e.ddr.Stats().Reads != 1 {
		t.Fatalf("DDR reads = %d", e.ddr.Stats().Reads)
	}
	if b.AccessStats().Reads != 1 {
		t.Fatal("access not recorded")
	}
}

func TestIdealCachesWithoutTraffic(t *testing.T) {
	e := newEnv(1, 64)
	s := NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 100)
	en := translate(t, e, s, 0, 0)
	if en.Space != mem.SpaceCache {
		t.Fatal("ideal walk did not cache the page")
	}
	if s.TagMisses != 1 || s.WouldFillBytes != mem.PageSize {
		t.Fatalf("would-fill accounting: %d misses, %d bytes", s.TagMisses, s.WouldFillBytes)
	}
	if e.ddr.Stats().TotalBytes() != 0 {
		t.Fatal("ideal scheme generated off-package traffic")
	}
	access(t, e, s, mem.AddrInFrame(en.Frame, 64), mem.SpaceCache, false)
	if e.hbm.Stats().Reads != 1 {
		t.Fatal("cache-space read did not reach HBM")
	}
}

func TestIdealEvictionKeepsFreeFrames(t *testing.T) {
	e := newEnv(1, 128)
	s := NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 10)
	for i := uint64(0); i < 500; i++ {
		translate(t, e, s, 0, i*mem.PageSize)
	}
	if e.mm.FreeFrames() == 0 {
		t.Fatal("ideal eviction failed to keep free frames")
	}
}

func TestTDCBlockingFill(t *testing.T) {
	e := newEnv(1, 1024)
	th := e.threads(1)
	s := NewTDC(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), th, nil)
	start := e.eng.Now()
	en := translate(t, e, s, 0, 0)
	elapsed := e.eng.Now() - start
	if en.Space != mem.SpaceCache {
		t.Fatal("TDC tag miss did not cache the page")
	}
	// The thread waited for the whole 4 KB copy: 64 reads + 64 writes.
	if e.ddr.Stats().Reads != 64 || e.hbm.Stats().Writes != 64 {
		t.Fatalf("copy moved %d/%d", e.ddr.Stats().Reads, e.hbm.Stats().Writes)
	}
	if elapsed < 2000 {
		t.Fatalf("blocking fill took only %d cycles", elapsed)
	}
	if th[0].(*idleThread).blocked != 0 {
		t.Fatal("thread left blocked")
	}
	if !s.Drained() {
		t.Fatal("copies still in flight")
	}
}

func TestNOMADDecoupledFill(t *testing.T) {
	e := newEnv(1, 1024)
	th := e.threads(1)
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), core.DefaultBackendConfig(), th, nil)
	start := e.eng.Now()
	en := translate(t, e, s, 0, 0x40)
	elapsed := e.eng.Now() - start
	// Thread resumes after walk + tag management, not after the copy.
	want := core.DefaultFrontendConfig().WalkLatency + core.DefaultFrontendConfig().TagMgmtLatency
	if elapsed != want {
		t.Fatalf("NOMAD tag miss latency = %d, want %d", elapsed, want)
	}
	if s.Drained() {
		t.Fatal("fill completed implausibly fast (should be in flight)")
	}
	// Demand access to the faulted page: data miss handled by back-end.
	access(t, e, s, mem.AddrInFrame(en.Frame, 0x40), mem.SpaceCache, false)
	if s.Backend().Stats().DataMisses == 0 {
		t.Fatal("access during fill not detected as data miss")
	}
	if !e.eng.RunUntil(func() bool { return s.Drained() }, 1_000_000) {
		t.Fatal("fill never completed")
	}
	// After the fill, the same access is a data hit straight to HBM.
	before := s.Backend().Stats().DataHits
	access(t, e, s, mem.AddrInFrame(en.Frame, 0x40), mem.SpaceCache, false)
	if s.Backend().Stats().DataHits != before+1 {
		t.Fatal("post-fill access not a data hit")
	}
}

func TestNOMADNoteStoreSetsDirty(t *testing.T) {
	e := newEnv(1, 64)
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), core.DefaultBackendConfig(), e.threads(1), nil)
	en := translate(t, e, s, 0, 0)
	s.NoteStore(0, en)
	if !e.mm.CPDOf(en.Frame).DirtyInCache {
		t.Fatal("NoteStore did not set the DC bit")
	}
}

func TestTiDMetadataTraffic(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1024 * mem.PageSize})
	en := translate(t, e, s, 0, 0)
	if en.Space != mem.SpacePhysical {
		t.Fatal("TiD should keep conventional translation")
	}
	// First access: miss -> 1 KB fill from DDR.
	access(t, e, s, mem.AddrInFrame(en.Frame, 0), mem.SpacePhysical, false)
	e.eng.Run(20000) // let the fill finish
	if got := e.ddr.Stats().BytesByKind[mem.KindFill]; got != 1024 {
		t.Fatalf("fill bytes = %d, want 1024 (one TiD line)", got)
	}
	if e.hbm.Stats().BytesByKind[mem.KindMetadata] == 0 {
		t.Fatal("no metadata traffic on access")
	}
	// Second access to the same line: hit, still costs metadata.
	meta := e.hbm.Stats().BytesByKind[mem.KindMetadata]
	access(t, e, s, mem.AddrInFrame(en.Frame, 64), mem.SpacePhysical, false)
	e.eng.Run(1000)
	if e.hbm.Stats().BytesByKind[mem.KindMetadata] <= meta {
		t.Fatal("hit consumed no metadata bandwidth")
	}
	if s.TiDStats().Hits != 1 || s.TiDStats().Misses != 1 {
		t.Fatalf("tid stats %+v", s.TiDStats())
	}
}

func TestTiDSetAssociativeEviction(t *testing.T) {
	e := newEnv(1, 1024)
	// Tiny cache: 4 lines = 1 set of 4 ways.
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 4 * 1024})
	// Write-allocate 5 distinct lines mapping to the single set: the LRU
	// victim (dirty) must be written back.
	for i := uint64(0); i < 5; i++ {
		done := false
		req := mem.Request{Addr: i * 1024, Write: true, Kind: mem.KindDemand}
		s.Access(&req, nil)
		e.eng.RunUntil(func() bool { done = s.Drained(); return done }, 1_000_000)
	}
	if s.TiDStats().Writebacks == 0 {
		t.Fatal("no writeback despite conflict eviction of dirty line")
	}
	if e.ddr.Stats().BytesByKind[mem.KindWriteback] == 0 {
		t.Fatal("writeback bytes missing on DDR")
	}
}

func TestNOMADPhysicalAccessPath(t *testing.T) {
	e := newEnv(1, 64)
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), core.DefaultBackendConfig(), e.threads(1), nil)
	// A non-cacheable page keeps a physical translation; its accesses go
	// to DDR through the writeback-PCSHR check.
	pte := e.mm.PTEOf(0, 4)
	pte.NonCacheable = true
	en := translate(t, e, s, 0, 4*mem.PageSize)
	if en.Space != mem.SpacePhysical {
		t.Fatal("NC page not physical")
	}
	access(t, e, s, mem.AddrInFrame(en.Frame, 0), mem.SpacePhysical, false)
	if e.ddr.Stats().Reads != 1 {
		t.Fatalf("DDR reads = %d", e.ddr.Stats().Reads)
	}
}

func TestNOMADVerifyLatency(t *testing.T) {
	e := newEnv(1, 64)
	bcfg := core.DefaultBackendConfig()
	bcfg.VerifyLatency = 50
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), bcfg, e.threads(1), nil)
	en := translate(t, e, s, 0, 0)
	if !e.eng.RunUntil(func() bool { return s.Drained() }, 1_000_000) {
		t.Fatal("fill stuck")
	}
	start := e.eng.Now()
	done := false
	req := mem.Request{Addr: mem.TagSpace(mem.AddrInFrame(en.Frame, 0), mem.SpaceCache)}
	s.Access(&req, func() { done = true })
	e.eng.RunUntil(func() bool { return done }, 100_000)
	if lat := e.eng.Now() - start; lat < 50 {
		t.Fatalf("access latency %d ignores the 50-cycle verification", lat)
	}
}

func TestTDCAccessPaths(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTDC(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), e.threads(1), nil)
	en := translate(t, e, s, 0, 0)
	access(t, e, s, mem.AddrInFrame(en.Frame, 0), mem.SpaceCache, false)
	if s.AccessStats().CacheSpaceReads != 1 {
		t.Fatal("cache-space read not recorded")
	}
	access(t, e, s, 12345<<12, mem.SpacePhysical, true)
	if s.AccessStats().Writes != 1 {
		t.Fatal("write not recorded")
	}
	s.NoteStore(0, en)
	if !e.mm.CPDOf(en.Frame).DirtyInCache {
		t.Fatal("TDC NoteStore did not set the DC bit")
	}
	if s.Name() != "TDC" || s.Directory() == nil || s.Frontend() == nil {
		t.Fatal("TDC accessors broken")
	}
}

func TestTiDMSHRStall(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1 << 20, MSHRs: 1})
	completed := 0
	// Two misses to different lines with one MSHR: the second stalls.
	for i := uint64(0); i < 2; i++ {
		req := mem.Request{Addr: i * 2048, Kind: mem.KindDemand}
		s.Access(&req, func() { completed++ })
	}
	if !e.eng.RunUntil(func() bool { return completed == 2 }, 1_000_000) {
		t.Fatal("stalled access never completed")
	}
	if s.TiDStats().MSHRStalls != 1 {
		t.Fatalf("MSHR stalls = %d, want 1", s.TiDStats().MSHRStalls)
	}
}

func TestTiDEarlyRestartOnArrivedSubBlock(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1 << 20})
	first := false
	req := mem.Request{Addr: 0, Kind: mem.KindDemand}
	s.Access(&req, func() { first = true })
	// Wait for the demanded sub-block, then access it again mid-fill.
	if !e.eng.RunUntil(func() bool { return first }, 1_000_000) {
		t.Fatal("first access never completed")
	}
	if s.Drained() {
		t.Skip("fill already complete; early-restart window missed")
	}
	second := false
	req2 := mem.Request{Addr: 0, Kind: mem.KindDemand}
	s.Access(&req2, func() { second = true })
	if !e.eng.RunUntil(func() bool { return second }, 1_000_000) {
		t.Fatal("early-restart access never completed")
	}
}

func TestIdealNonCacheable(t *testing.T) {
	e := newEnv(1, 64)
	s := NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 10)
	pte := e.mm.PTEOf(0, 2)
	pte.NonCacheable = true
	en := translate(t, e, s, 0, 2*mem.PageSize)
	if en.Space != mem.SpacePhysical {
		t.Fatal("NC page cached by Ideal")
	}
	s.NoteStore(0, en) // must not panic on physical entries
}

func TestSchemeNames(t *testing.T) {
	e := newEnv(1, 64)
	names := map[string]bool{}
	for _, s := range []Scheme{
		NewBaseline(e.eng, e.ddr, e.mm, 1),
		NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 1),
		NewTiD(e.eng, e.hbm, e.ddr, e.mm, 1, TiDConfig{CapacityBytes: 1 << 20}),
	} {
		names[s.Name()] = true
	}
	if !names["Baseline"] || !names["Ideal"] || !names["TiD"] {
		t.Fatalf("names = %v", names)
	}
}

// TestTiDLineFillAllocs pins the allocation cost of a TiD line fill: the 16
// sub-block reads and their data-array writes complete through the MSHR
// (a dram.Completer), not a closure each.
func TestTiDLineFillAllocs(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1 << 20})
	done := false
	onDone := func() { done = true }
	filled := func() bool { return done && s.Drained() }
	var line uint64
	fill := func() {
		done = false
		req := mem.Request{Addr: line * tidLineSize, Kind: mem.KindDemand}
		line++
		s.Access(&req, onDone)
		e.eng.RunUntil(filled, 1_000_000)
	}
	// Warm the DRAM request pools and the timing wheel: the fills drift
	// around the wheel, so it takes many of them before every bucket has
	// held events.
	for range 2000 {
		fill()
	}
	// Two remain: the MSHR and its waiter list. The invariants build boxes
	// assertion arguments, so only the default build counts.
	if a := testing.AllocsPerRun(50, fill); a > 2 && !check.Enabled {
		t.Fatalf("line fill: %v allocs/op, want at most 2", a)
	}
	if !filled() {
		t.Fatal("line fill never completed")
	}
}
