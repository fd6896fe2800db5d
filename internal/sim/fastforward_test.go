package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// sleeper is a test ticker that records its ticks and, after each one,
// sleeps until the cycle next names (NoWork: until woken; now+1 or less:
// stays awake).
type sleeper struct {
	e     *Engine
	id    int
	next  func(now uint64) uint64
	ticks []uint64
}

func addSleeper(e *Engine, next func(now uint64) uint64) *sleeper {
	s := &sleeper{e: e, next: next}
	s.id = e.AddTicker(s)
	return s
}

func (s *sleeper) Tick(now uint64) {
	s.ticks = append(s.ticks, now)
	if until := s.next(now); until > now+1 {
		s.e.Sleep(s.id, until)
	}
}

func forever(uint64) uint64 { return NoWork }

func equalCycles(x, y []uint64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestCycleZeroEventObservesNowZero pins the cycle-0 fix: an event scheduled
// with At(0, fn) before the first Step must observe Now() == 0, not 1.
func TestCycleZeroEventObservesNowZero(t *testing.T) {
	e := New()
	observed := uint64(999)
	e.At(0, func() { observed = e.Now() })
	e.Run(1)
	if observed != 0 {
		t.Fatalf("At(0) event observed Now() == %d, want 0", observed)
	}
	if e.Now() != 1 {
		t.Fatalf("Run(1) left clock at %d, want 1", e.Now())
	}
}

// TestCycleZeroEventBeforeTickers checks the cycle-0 event also runs before
// cycle 1's tickers, preserving event/ticker ordering across the fix.
func TestCycleZeroEventBeforeTickers(t *testing.T) {
	e := New()
	var order []string
	e.At(0, func() { order = append(order, "event0") })
	e.AddTicker(TickerFunc(func(now uint64) { order = append(order, "tick") }))
	e.Schedule(1, func() { order = append(order, "event1") })
	e.Run(1)
	want := []string{"event0", "tick", "event1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestHookCatchUp pins the phase-drift fix: if the clock somehow moves more
// than one window past a hook boundary in a single Step, the hook fires once
// per elapsed boundary with the boundary cycle as now, instead of firing
// once and drifting.
func TestHookCatchUp(t *testing.T) {
	e := New()
	var samples, intervals []uint64
	e.SetSampler(10, func(now uint64) { samples = append(samples, now) })
	e.SetInterval(25, func(now uint64) { intervals = append(intervals, now) })
	e.now = 49 // white-box: simulate a multi-window advance
	e.Step()   // now = 50
	wantS := []uint64{10, 20, 30, 40, 50}
	if len(samples) != len(wantS) {
		t.Fatalf("sampler fired at %v, want %v", samples, wantS)
	}
	for i := range wantS {
		if samples[i] != wantS[i] {
			t.Fatalf("sampler fired at %v, want %v", samples, wantS)
		}
	}
	if len(intervals) != 2 || intervals[0] != 25 || intervals[1] != 50 {
		t.Fatalf("interval hook fired at %v, want [25 50]", intervals)
	}
	// Phase is intact: the next boundaries are 60 and 75.
	e.Run(25) // now = 75
	if samples[len(samples)-1] != 70 || intervals[len(intervals)-1] != 75 {
		t.Fatalf("post-catch-up boundaries: sampler %v, interval %v", samples, intervals)
	}
}

// TestHookReRegisterInsideCallback re-registers each hook from within its own
// callback; the new registration must anchor at the firing boundary and the
// old phase must not fire again.
func TestHookReRegisterInsideCallback(t *testing.T) {
	e := New()
	var fired []uint64
	var second func(now uint64)
	second = func(now uint64) { fired = append(fired, now) }
	e.SetSampler(10, func(now uint64) {
		fired = append(fired, now)
		e.SetSampler(7, second)
	})
	e.Run(20)
	// First registration fires at 10 and swaps in the 7-cycle sampler,
	// which then fires at 17 (10+7).
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 17 {
		t.Fatalf("sampler fired at %v, want [10 17]", fired)
	}

	e2 := New()
	var ifired []uint64
	e2.SetInterval(10, func(now uint64) {
		ifired = append(ifired, now)
		e2.SetInterval(0, nil) // disable from inside the callback
	})
	e2.Run(40)
	if len(ifired) != 1 || ifired[0] != 10 {
		t.Fatalf("interval hook fired at %v, want [10]", ifired)
	}
}

// TestFastForwardSkipsIdleSpan: with its only ticker asleep, the engine
// jumps straight to the pending event, which wakes the ticker for the next
// cycle, and then to the run limit.
func TestFastForwardSkipsIdleSpan(t *testing.T) {
	e := New()
	s := addSleeper(e, forever)
	fired := uint64(0)
	e.Schedule(100, func() { fired = e.Now(); e.Wake(s.id) })
	e.Run(200)
	if fired != 100 {
		t.Fatalf("event fired at %d, want 100", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("clock at %d, want 200", e.Now())
	}
	if !equalCycles(s.ticks, []uint64{1, 101}) {
		t.Fatalf("ticks = %v, want [1 101]", s.ticks)
	}
	// Two jumps: 1 -> 100 (cycles 2..99 skipped) and 101 -> 200
	// (102..199); each lands on a real Step.
	if e.Jumps() != 2 {
		t.Fatalf("Jumps = %d, want 2", e.Jumps())
	}
	if e.SkippedCycles() != 196 {
		t.Fatalf("SkippedCycles = %d, want 196", e.SkippedCycles())
	}
}

// TestFastForwardHonorsNextWork: a timed sleep ends exactly at the cycle the
// ticker named, with no event pending to bound the jump.
func TestFastForwardHonorsNextWork(t *testing.T) {
	e := New()
	s := addSleeper(e, func(now uint64) uint64 {
		if now < 40 {
			return 40
		}
		return NoWork
	})
	e.Run(50)
	if !equalCycles(s.ticks, []uint64{1, 40}) {
		t.Fatalf("ticks = %v, want [1 40]", s.ticks)
	}
	if e.Now() != 50 || e.Jumps() != 2 {
		t.Fatalf("clock %d after %d jumps, want 50 after 2", e.Now(), e.Jumps())
	}
}

// settleCounter is a lazily-accounted sleeper: it counts every cycle it is
// registered for, charging slept cycles in bulk through Settle.
type settleCounter struct {
	e         *Engine
	id        int
	cycles    uint64
	asleep    bool
	sleptFrom uint64
}

func (c *settleCounter) Tick(now uint64) {
	c.Settle(now - 1)
	c.asleep = false
	c.cycles++
	if c.e.Sleep(c.id, NoWork) {
		c.asleep, c.sleptFrom = true, now+1
	}
}

func (c *settleCounter) Settle(through uint64) {
	if c.asleep && through >= c.sleptFrom {
		c.cycles += through - c.sleptFrom + 1
		c.sleptFrom = through + 1
	}
}

// TestFastForwardHonorsHookBoundaries: jumps clamp to sampler and interval
// boundaries so hooks fire at exactly the same cycles as a stepped run, and
// sleepers are settled through the boundary before each hook reads them.
func TestFastForwardHonorsHookBoundaries(t *testing.T) {
	e := New()
	c := &settleCounter{e: e}
	c.id = e.AddTicker(c)
	var samples, intervals []uint64
	e.SetSampler(10, func(now uint64) {
		samples = append(samples, now)
		if c.cycles != now {
			t.Errorf("sampler at %d saw %d settled cycles", now, c.cycles)
		}
	})
	e.SetInterval(25, func(now uint64) { intervals = append(intervals, now) })
	e.Run(50)
	if want := []uint64{10, 20, 30, 40, 50}; !equalCycles(samples, want) {
		t.Fatalf("sampler fired at %v, want %v", samples, want)
	}
	if !equalCycles(intervals, []uint64{25, 50}) {
		t.Fatalf("interval hook fired at %v, want [25 50]", intervals)
	}
	if e.Jumps() == 0 {
		t.Fatal("never jumped between hook boundaries")
	}
	e.Run(7) // ends between boundaries: Run settles on return
	if c.cycles != 57 {
		t.Fatalf("settled %d cycles at return from cycle 57", c.cycles)
	}
}

// TestFastForwardInertWithPlainTicker: a ticker that never sleeps is ticked
// every cycle and keeps the engine from jumping.
func TestFastForwardInertWithPlainTicker(t *testing.T) {
	e := New()
	addSleeper(e, forever)
	n := 0
	e.AddTicker(TickerFunc(func(uint64) { n++ }))
	e.Run(100)
	if e.Jumps() != 0 || e.SkippedCycles() != 0 {
		t.Fatalf("jumped with a plain ticker registered: jumps=%d skipped=%d", e.Jumps(), e.SkippedCycles())
	}
	if n != 100 {
		t.Fatalf("plain ticker ran %d times, want 100", n)
	}
}

// TestFastForwardDisabledBySwitch: SetFastForward(false) wakes every
// sleeper and turns Sleep into a no-op, so every ticker ticks every cycle.
func TestFastForwardDisabledBySwitch(t *testing.T) {
	e := New()
	s := addSleeper(e, forever)
	e.Run(10) // asleep since cycle 1
	e.SetFastForward(false)
	if e.FastForwardEnabled() {
		t.Fatal("FastForwardEnabled after SetFastForward(false)")
	}
	jumps, skipped := e.Jumps(), e.SkippedCycles()
	e.Run(100)
	if e.Jumps() != jumps || e.SkippedCycles() != skipped {
		t.Fatalf("jumped while disabled: jumps=%d skipped=%d", e.Jumps()-jumps, e.SkippedCycles()-skipped)
	}
	if len(s.ticks) != 101 || s.ticks[1] != 11 || s.ticks[100] != 110 {
		t.Fatalf("ticker ran at %d cycles (%v...), want 1 then 11..110", len(s.ticks), s.ticks[:2])
	}
}

// worker is one ticker of the differential machine below. It does one unit
// of work per tick while it has any; otherwise the tick is idle, and idle
// ticks are what dormancy skips and charges lazily (as cpu.Core charges
// stall cycles). Work arrives from events, from other workers during the
// tick phase (lower and higher ids alike), and from the worker's own timer.
type worker struct {
	m         *diffMachine
	id        int
	rng       *rand.Rand
	pending   int
	timerAt   uint64 // a unit of work arrives at this cycle (0: none)
	idle      uint64
	asleep    bool
	sleptFrom uint64
}

// diffMachine logs everything a stepped and a dormant run must agree on.
type diffMachine struct {
	e       *Engine
	workers []*worker
	work    [][2]uint64 // (cycle, worker) of every work tick
	events  []uint64    // cycle of every event
	hooks   [][]uint64  // cycle and every worker's idle count, per hook
}

func (w *worker) settle(through uint64) {
	if w.asleep && through >= w.sleptFrom {
		w.idle += through - w.sleptFrom + 1
		w.sleptFrom = through + 1
	}
}

func (w *worker) Settle(through uint64) { w.settle(through) }

// give hands w one unit of work, settling its idle span first.
func (w *worker) give() {
	e := w.m.e
	w.settle(e.TickedThrough(w.id))
	w.asleep = false
	w.pending++
	e.Wake(w.id)
}

func (w *worker) Tick(now uint64) {
	m := w.m
	w.settle(now - 1) // woken by the engine's timer
	w.asleep = false
	if w.timerAt != 0 && now >= w.timerAt {
		w.timerAt = 0
		w.pending++
	}
	if w.pending == 0 {
		w.idle++
	} else {
		w.pending--
		m.work = append(m.work, [2]uint64{now, uint64(w.id)})
		switch w.rng.Intn(5) {
		case 0, 1: // an event gives some worker work later
			to := m.workers[w.rng.Intn(len(m.workers))]
			m.e.Schedule(uint64(w.rng.Intn(40)), func() {
				m.events = append(m.events, m.e.Now())
				to.give()
			})
		case 2: // hand work to another worker in the tick phase
			m.workers[w.rng.Intn(len(m.workers))].give()
		case 3: // a timer, if none is set
			if w.timerAt == 0 {
				w.timerAt = now + 1 + uint64(w.rng.Intn(60))
			}
		}
	}
	if w.pending > 0 {
		return
	}
	until := NoWork
	if w.timerAt != 0 {
		until = w.timerAt
	}
	if until > now+1 && m.e.Sleep(w.id, until) {
		w.asleep, w.sleptFrom = true, now+1
	}
}

func runDiffMachine(seed int64, ff bool) *diffMachine {
	m := &diffMachine{e: New()}
	m.e.SetFastForward(ff)
	for i := 0; i < 4; i++ {
		w := &worker{m: m, rng: rand.New(rand.NewSource(seed*10 + int64(i)))}
		w.id = m.e.AddTicker(w)
		m.workers = append(m.workers, w)
	}
	hook := func(now uint64) {
		rec := []uint64{now}
		for _, w := range m.workers {
			rec = append(rec, w.idle)
		}
		m.hooks = append(m.hooks, rec)
	}
	m.e.SetSampler(37, hook)
	m.e.SetInterval(100, hook)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		to := m.workers[r.Intn(len(m.workers))]
		m.e.Schedule(uint64(r.Intn(500)), func() {
			m.events = append(m.events, m.e.Now())
			to.give()
		})
	}
	// Alternate Run and RunUntil over uneven chunks: both settle on return
	// and bound their jumps by the chunk end.
	for m.e.Now() < 3000 {
		chunk := uint64(1 + r.Intn(300))
		if r.Intn(2) == 0 {
			m.e.Run(chunk)
		} else {
			target := len(m.work) + 1 + r.Intn(20)
			m.e.RunUntil(func() bool { return len(m.work) >= target }, chunk)
		}
		hook(m.e.Now())
	}
	return m
}

// TestFastForwardEquivalence drives randomized machines of sleeping tickers
// through a dormant engine and a stepped one (SetFastForward(false)) and
// requires identical work ticks, event cycles, hook cycles and lazily
// settled idle counts. Sleepers are woken by timed wakes, by events, and by
// lower- and higher-id tickers during the tick phase.
func TestFastForwardEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		on, off := runDiffMachine(seed, true), runDiffMachine(seed, false)
		if !reflect.DeepEqual(on.work, off.work) {
			t.Fatalf("seed %d: work ticks differ:\n  dormant: %v\n  stepped: %v", seed, on.work, off.work)
		}
		if !equalCycles(on.events, off.events) {
			t.Fatalf("seed %d: event cycles differ: dormant=%v stepped=%v", seed, on.events, off.events)
		}
		if !reflect.DeepEqual(on.hooks, off.hooks) {
			t.Fatalf("seed %d: hooks differ:\n  dormant: %v\n  stepped: %v", seed, on.hooks, off.hooks)
		}
		if on.e.Now() != off.e.Now() {
			t.Fatalf("seed %d: clocks differ: %d vs %d", seed, on.e.Now(), off.e.Now())
		}
		if off.e.SkippedCycles() != 0 || on.e.SkippedCycles() == 0 {
			t.Fatalf("seed %d: skipped %d cycles dormant, %d stepped", seed, on.e.SkippedCycles(), off.e.SkippedCycles())
		}
	}
}

// TestEventFIFOAcrossHeapChurn grows and shrinks the heap by scheduling new
// events from inside running events under a seeded random schedule, and
// requires global (cycle, insertion) order to hold throughout.
func TestEventFIFOAcrossHeapChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New()
	type fired struct {
		cycle uint64
		id    int
	}
	var log []fired
	nextID := 0
	var add func(depth int) // schedules one event that may schedule more
	add = func(depth int) {
		id := nextID
		nextID++
		e.Schedule(uint64(1+rng.Intn(30)), func() {
			log = append(log, fired{e.Now(), id})
			if depth > 0 && rng.Intn(2) == 0 {
				for i := 0; i < 1+rng.Intn(3); i++ {
					add(depth - 1)
				}
			}
		})
	}
	for i := 0; i < 100; i++ {
		add(3)
	}
	e.Run(200)
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after drain window", e.Pending())
	}
	if len(log) != nextID {
		t.Fatalf("fired %d of %d events", len(log), nextID)
	}
	for i := 1; i < len(log); i++ {
		if log[i].cycle < log[i-1].cycle {
			t.Fatalf("event %d fired at %d after event %d at %d", log[i].id, log[i].cycle, log[i-1].id, log[i-1].cycle)
		}
	}
	// Same-cycle events fire in insertion order. IDs are assigned in
	// scheduling order, so within one cycle they must increase.
	byCycle := map[uint64][]int{}
	for _, f := range log {
		byCycle[f.cycle] = append(byCycle[f.cycle], f.id)
	}
	for c, ids := range byCycle {
		for i := 1; i < len(ids); i++ {
			if ids[i] < ids[i-1] {
				t.Fatalf("cycle %d: same-cycle events out of FIFO order: %v", c, ids)
			}
		}
	}
}

// TestRunUntilBoundaries pins RunUntil's edge semantics: pred is evaluated
// before any cycle runs, maxCycles bounds the advance exactly, and a pred
// that becomes true on the final permitted cycle is still observed.
func TestRunUntilBoundaries(t *testing.T) {
	// pred already true: no cycles run.
	e := New()
	if !e.RunUntil(func() bool { return true }, 100) {
		t.Fatal("RunUntil(true) = false")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %d for an already-true pred", e.Now())
	}

	// maxCycles == 0: no advance, pred decides the result.
	if e.RunUntil(func() bool { return false }, 0) {
		t.Fatal("RunUntil(false, 0) = true")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %d with maxCycles 0", e.Now())
	}

	// pred becomes true on exactly the last permitted cycle.
	e2 := New()
	done := false
	e2.Schedule(10, func() { done = true })
	if !e2.RunUntil(func() bool { return done }, 10) {
		t.Fatal("RunUntil missed a pred satisfied on the final cycle")
	}
	if e2.Now() != 10 {
		t.Fatalf("stopped at %d, want 10", e2.Now())
	}

	// Exhaustion: the clock advances exactly maxCycles.
	e3 := New()
	if e3.RunUntil(func() bool { return false }, 25) {
		t.Fatal("RunUntil reported success for an impossible pred")
	}
	if e3.Now() != 25 {
		t.Fatalf("clock at %d after exhaustion, want 25", e3.Now())
	}

	// Fast-forward variant: pred driven by an event, the only ticker
	// asleep, same stopping cycle as the stepped run above.
	e4 := New()
	addSleeper(e4, forever)
	done4 := false
	e4.Schedule(10, func() { done4 = true })
	if !e4.RunUntil(func() bool { return done4 }, 10) {
		t.Fatal("fast-forward RunUntil missed the pred")
	}
	if e4.Now() != 10 {
		t.Fatalf("fast-forward stopped at %d, want 10", e4.Now())
	}
	if e4.Jumps() == 0 {
		t.Fatal("fast-forward RunUntil never jumped across the idle span")
	}
}
