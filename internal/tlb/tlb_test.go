package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nomad/internal/mem"
	"nomad/internal/sim"
)

// fakeWalker resolves every vpn to frame = vpn+1000 after a delay, counting
// walks.
type fakeWalker struct {
	eng   *sim.Engine
	delay uint64
	walks int
	space mem.Space
}

func (w *fakeWalker) Walk(core int, vaddr uint64, done func(Entry)) {
	w.walks++
	vpn := mem.PageNum(vaddr)
	w.eng.Schedule(w.delay, func() {
		done(Entry{VPN: vpn, Frame: vpn + 1000, Space: w.space})
	})
}

type dirLog struct {
	inserted []uint64
	evicted  []uint64
}

func (d *dirLog) TLBInserted(core int, e Entry) { d.inserted = append(d.inserted, e.Frame) }
func (d *dirLog) TLBEvicted(core int, e Entry)  { d.evicted = append(d.evicted, e.Frame) }

func newTestTLB(eng *sim.Engine, l1, l2 int, space mem.Space) (*TLB, *fakeWalker, *dirLog) {
	w := &fakeWalker{eng: eng, delay: 100, space: space}
	d := &dirLog{}
	return New(eng, 0, Config{L1Entries: l1, L2Entries: l2, L2Latency: 9}, w, d), w, d
}

func translate(t *testing.T, eng *sim.Engine, tl *TLB, vaddr uint64) Entry {
	t.Helper()
	var got *Entry
	tl.Translate(vaddr, func(e Entry) { got = &e })
	if !eng.RunUntil(func() bool { return got != nil }, 10000) {
		t.Fatal("translation never completed")
	}
	return *got
}

func TestL1HitIsSynchronous(t *testing.T) {
	eng := sim.New()
	tl, w, _ := newTestTLB(eng, 4, 16, mem.SpaceCache)
	translate(t, eng, tl, 0x5000)
	start := eng.Now()
	sync := false
	tl.Translate(0x5000, func(Entry) { sync = true })
	if !sync {
		t.Fatal("L1 TLB hit was not synchronous")
	}
	if eng.Now() != start {
		t.Fatal("L1 hit advanced time")
	}
	if w.walks != 1 {
		t.Fatalf("walks = %d, want 1", w.walks)
	}
	if tl.Stats().L1Hits != 1 {
		t.Fatalf("stats %+v", tl.Stats())
	}
}

func TestL2HitLatency(t *testing.T) {
	eng := sim.New()
	tl, _, _ := newTestTLB(eng, 1, 16, mem.SpaceCache)
	translate(t, eng, tl, 0x1000)
	translate(t, eng, tl, 0x2000) // evicts 0x1000 from the 1-entry L1
	start := eng.Now()
	e := translate(t, eng, tl, 0x1000) // L2 hit
	if eng.Now()-start != 9 {
		t.Fatalf("L2 hit latency = %d, want 9", eng.Now()-start)
	}
	if e.Frame != 1+1000 {
		t.Fatalf("frame = %d", e.Frame)
	}
	if tl.Stats().L2Hits != 1 {
		t.Fatalf("stats %+v", tl.Stats())
	}
}

func TestWalkCoalescing(t *testing.T) {
	eng := sim.New()
	tl, w, _ := newTestTLB(eng, 4, 16, mem.SpaceCache)
	n := 0
	tl.Translate(0x7000, func(Entry) { n++ })
	tl.Translate(0x7040, func(Entry) { n++ }) // same page
	eng.RunUntil(func() bool { return n == 2 }, 10000)
	if n != 2 || w.walks != 1 {
		t.Fatalf("n=%d walks=%d, want 2 walks=1", n, w.walks)
	}
	if tl.Stats().Coalesced != 1 {
		t.Fatalf("coalesced = %d", tl.Stats().Coalesced)
	}
}

func TestDirectoryTracksCacheEntries(t *testing.T) {
	eng := sim.New()
	tl, _, d := newTestTLB(eng, 2, 2, mem.SpaceCache)
	translate(t, eng, tl, 0)
	translate(t, eng, tl, mem.PageSize)
	if len(d.inserted) != 2 {
		t.Fatalf("inserted = %v", d.inserted)
	}
	// Third entry evicts from the 2-entry (inclusive) L2.
	translate(t, eng, tl, 2*mem.PageSize)
	if len(d.evicted) != 1 {
		t.Fatalf("evicted = %v", d.evicted)
	}
}

func TestDirectoryIgnoresPhysicalEntries(t *testing.T) {
	eng := sim.New()
	tl, _, d := newTestTLB(eng, 2, 4, mem.SpacePhysical)
	translate(t, eng, tl, 0)
	if len(d.inserted) != 0 {
		t.Fatal("physical-space entry reported to directory")
	}
}

func TestInvalidate(t *testing.T) {
	eng := sim.New()
	tl, w, d := newTestTLB(eng, 4, 16, mem.SpaceCache)
	translate(t, eng, tl, 0x9000)
	if !tl.Resident(9) {
		t.Fatal("entry not resident after walk")
	}
	if !tl.Invalidate(9) {
		t.Fatal("Invalidate missed a resident entry")
	}
	if tl.Resident(9) {
		t.Fatal("entry resident after Invalidate")
	}
	if len(d.evicted) != 1 {
		t.Fatalf("directory not notified on invalidate: %v", d.evicted)
	}
	translate(t, eng, tl, 0x9000)
	if w.walks != 2 {
		t.Fatalf("walks = %d, want 2 after invalidation", w.walks)
	}
	if tl.Invalidate(999) {
		t.Fatal("Invalidate matched a missing entry")
	}
}

// TestInclusionProperty: after any access sequence, every L1-resident entry
// is also L2-resident (the directory relies on L2 inclusivity).
func TestInclusionProperty(t *testing.T) {
	f := func(pages []uint8) bool {
		eng := sim.New()
		tl, _, _ := newTestTLB(eng, 4, 8, mem.SpaceCache)
		n := 0
		for _, p := range pages {
			tl.Translate(uint64(p)*mem.PageSize, func(Entry) { n++ })
		}
		eng.RunUntil(func() bool { return n == len(pages) }, 100000)
		if n != len(pages) {
			return false
		}
		for vpn := range tl.l1.index {
			if _, ok := tl.l2.index[vpn]; !ok {
				return false
			}
		}
		return len(tl.l1.index) <= 4 && len(tl.l2.index) <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryBalanceProperty: inserted events minus evicted events equals
// current cache-space residency in the L2.
func TestDirectoryBalanceProperty(t *testing.T) {
	f := func(pages []uint8) bool {
		eng := sim.New()
		tl, _, d := newTestTLB(eng, 2, 4, mem.SpaceCache)
		n := 0
		for _, p := range pages {
			tl.Translate(uint64(p)*mem.PageSize, func(Entry) { n++ })
		}
		eng.RunUntil(func() bool { return n == len(pages) }, 100000)
		return len(d.inserted)-len(d.evicted) == len(tl.l2.index)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refLevel is the reference oracle for level: a map of slots stamped with
// a global tick on every touch, evicting the minimum stamp by a full scan.
// Stamps are unique, so its victim is exactly the least recently touched
// entry.
type refLevel struct {
	entries map[uint64]*refSlot
	cap     int
	tick    uint64
}

type refSlot struct {
	e   Entry
	lru uint64
}

func newRefLevel(capacity int) *refLevel {
	return &refLevel{entries: make(map[uint64]*refSlot, capacity), cap: capacity}
}

func (l *refLevel) lookup(vpn uint64) (Entry, bool) {
	s, ok := l.entries[vpn]
	if !ok {
		return Entry{}, false
	}
	l.tick++
	s.lru = l.tick
	return s.e, true
}

func (l *refLevel) insert(e Entry) (Entry, bool) {
	if s, ok := l.entries[e.VPN]; ok {
		l.tick++
		s.e = e
		s.lru = l.tick
		return Entry{}, false
	}
	var victim Entry
	evicted := false
	if len(l.entries) >= l.cap {
		var vk uint64
		oldest := ^uint64(0)
		for k, s := range l.entries {
			if s.lru < oldest {
				oldest = s.lru
				vk = k
			}
		}
		victim = l.entries[vk].e
		delete(l.entries, vk)
		evicted = true
	}
	l.tick++
	l.entries[e.VPN] = &refSlot{e: e, lru: l.tick}
	return victim, evicted
}

func (l *refLevel) invalidate(vpn uint64) (Entry, bool) {
	s, ok := l.entries[vpn]
	if !ok {
		return Entry{}, false
	}
	delete(l.entries, vpn)
	return s.e, true
}

// TestLevelMatchesReference drives the recency-list level and the
// map-and-tick reference with the same seeded random lookup / insert /
// invalidate sequences and requires identical hit results, victims and
// invalidation results at every step.
func TestLevelMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 4, 64, 1536} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := newLevel(capacity), newRefLevel(capacity)
			span := 2*capacity + 2 // VPN range: resident and absent pages both common
			var evictions int
			for step := 0; step < 20_000; step++ {
				vpn := uint64(rng.Intn(span))
				switch op := rng.Intn(10); {
				case op < 5:
					ge, gok := got.lookup(vpn)
					we, wok := want.lookup(vpn)
					if ge != we || gok != wok {
						t.Fatalf("cap %d seed %d step %d: lookup(%d) = %v,%v, want %v,%v", capacity, seed, step, vpn, ge, gok, we, wok)
					}
				case op < 9:
					e := Entry{VPN: vpn, Frame: rng.Uint64(), Space: mem.Space(rng.Intn(2))}
					gv, gev := got.insert(e)
					wv, wev := want.insert(e)
					if gv != wv || gev != wev {
						t.Fatalf("cap %d seed %d step %d: insert(%d) evicted %v,%v, want %v,%v", capacity, seed, step, vpn, gv, gev, wv, wev)
					}
					if gev {
						evictions++
					}
				default:
					ge, gok := got.invalidate(vpn)
					we, wok := want.invalidate(vpn)
					if ge != we || gok != wok {
						t.Fatalf("cap %d seed %d step %d: invalidate(%d) = %v,%v, want %v,%v", capacity, seed, step, vpn, ge, gok, we, wok)
					}
				}
				if len(got.index) != len(want.entries) {
					t.Fatalf("cap %d seed %d step %d: %d resident, want %d", capacity, seed, step, len(got.index), len(want.entries))
				}
			}
			if evictions == 0 {
				t.Fatalf("cap %d seed %d: sequence never evicted", capacity, seed)
			}
			if len(got.slots) > capacity {
				t.Fatalf("cap %d: grew %d slots", capacity, len(got.slots))
			}
		}
	}
}

// syncWalker resolves every walk immediately with frame = vpn+1000,
// allocating nothing.
type syncWalker struct{}

func (syncWalker) Walk(_ int, vaddr uint64, done func(Entry)) {
	vpn := mem.PageNum(vaddr)
	done(Entry{VPN: vpn, Frame: vpn + 1000, Space: mem.SpaceCache})
}

type nopDir struct{}

func (nopDir) TLBInserted(int, Entry) {}
func (nopDir) TLBEvicted(int, Entry)  {}

// TestTranslateAllocFree pins the steady-state Translate paths at zero heap
// allocations: an L1 hit, an L2 hit (L1 refill plus the pooled delayed
// completion) and a page-table walk that installs into full levels.
func TestTranslateAllocFree(t *testing.T) {
	var n int
	done := func(Entry) { n++ }

	eng := sim.New()
	tl := New(eng, 0, Config{L1Entries: 4, L2Entries: 16, L2Latency: 9}, syncWalker{}, nopDir{})
	tl.Translate(0x5000, done)
	if a := testing.AllocsPerRun(1000, func() { tl.Translate(0x5000, done) }); a != 0 {
		t.Errorf("L1 hit: %v allocs/op", a)
	}

	// A 1-entry L1 over two alternating pages turns every translation into
	// an L2 hit.
	eng = sim.New()
	tl = New(eng, 0, Config{L1Entries: 1, L2Entries: 16, L2Latency: 9}, syncWalker{}, nopDir{})
	tl.Translate(0x1000, done)
	tl.Translate(0x2000, done)
	page := uint64(0x1000)
	l2hit := func() {
		tl.Translate(page, done)
		page ^= 0x3000
		for range 10 { // Step, not Run: under the invariants tag a fast-forward jump's assertions allocate
			eng.Step()
		}
	}
	for range 1000 { // cycle the engine's timing wheel so its buckets have grown
		l2hit()
	}
	hits := tl.Stats().L2Hits
	if a := testing.AllocsPerRun(1000, l2hit); a != 0 {
		t.Errorf("L2 hit: %v allocs/op", a)
	}
	if tl.Stats().L2Hits-hits < 1000 {
		t.Fatalf("L2 hits = %d, want every call to hit L2", tl.Stats().L2Hits-hits)
	}

	// Cycling over more pages than the L2 holds makes every translation a
	// walk that evicts from both levels.
	eng = sim.New()
	tl = New(eng, 0, Config{L1Entries: 2, L2Entries: 4, L2Latency: 9}, syncWalker{}, nopDir{})
	var vpn uint64
	walk := func() {
		tl.Translate(vpn*mem.PageSize, done)
		vpn = (vpn + 1) % 8
	}
	for range 64 {
		walk()
	}
	walks := tl.Stats().Misses
	if a := testing.AllocsPerRun(1000, walk); a != 0 {
		t.Errorf("walk install: %v allocs/op", a)
	}
	if tl.Stats().Misses-walks < 1000 {
		t.Fatalf("walks = %d, want every call to walk", tl.Stats().Misses-walks)
	}
}

// BenchmarkTranslate times Translate on the default TLB geometry for an
// all-L1-hit mix and an L2-hit mix (a working set larger than the L1 but
// within the L2, touched in a cycle so every access misses the L1).
func BenchmarkTranslate(b *testing.B) {
	cfg := DefaultConfig()
	done := func(Entry) {}
	for _, bc := range []struct {
		name  string
		pages uint64
	}{
		{"L1Hit", uint64(cfg.L1Entries) / 2},
		{"L2Hit", uint64(cfg.L2Entries) / 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.New()
			tl := New(eng, 0, cfg, syncWalker{}, nopDir{})
			for p := uint64(0); p < bc.pages; p++ {
				tl.Translate(p*mem.PageSize, done)
			}
			eng.Run(uint64(cfg.L2Latency) + 1)
			b.ReportAllocs()
			b.ResetTimer()
			var p uint64
			for i := 0; i < b.N; i++ {
				tl.Translate(p*mem.PageSize, done)
				if p++; p == bc.pages {
					p = 0
					eng.Run(uint64(cfg.L2Latency) + 1)
				}
			}
		})
	}
}
