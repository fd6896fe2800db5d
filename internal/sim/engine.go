// Package sim provides the deterministic simulation engine that drives every
// component in the repository: a cycle-ordered event queue plus a set of
// per-cycle tickers.
//
// Two execution styles coexist:
//
//   - Event-driven components (caches, OS routines, completion callbacks)
//     schedule closures with Engine.Schedule / Engine.At.
//   - Cycle-driven components (CPU cores, DRAM channel schedulers) register a
//     Ticker and are invoked once per simulated cycle.
//
// Determinism: events scheduled for the same cycle run in FIFO order of
// scheduling, and tickers run in registration order before the cycle's
// events. A given (configuration, workload, seed) therefore always produces
// identical statistics, which the tests rely on.
//
// The event queue itself is a WheelScheduler (hierarchical timing wheel,
// allocation-free steady state). The package's differential tests check it
// against a binary min-heap oracle kept in test code.
//
// Dormancy: a ticker with nothing to do puts itself to sleep (Sleep) until a
// cycle it names or until another component wakes it (Wake), and the engine
// ticks only awake tickers. When no ticker is awake, Run/RunUntil jump the
// clock straight to the next cycle at which anything can happen: the
// earliest timed wake, the scheduler's NextDue, or the next sampler/interval
// boundary. Sleepers that owe per-cycle accounting for the span they slept
// (Settler) are caught up before every hook and before Run/RunUntil return,
// so a run with dormancy on is state-identical (byte-identical snapshots,
// timelines, and traces) to the same run with every ticker ticked every
// cycle. See DESIGN.md, "Per-ticker dormancy".
package sim

import (
	"fmt"
	"math/bits"

	"nomad/internal/check"
)

// Ticker is a component that needs to observe simulated cycles.
type Ticker interface {
	// Tick is called once per cycle while the ticker is awake, after the
	// cycle counter has advanced and before that cycle's scheduled events
	// run.
	Tick(now uint64)
}

// NoWork is the Sleep deadline meaning "only a Wake can give this ticker
// work": the ticker sleeps indefinitely.
const NoWork = ^uint64(0)

// Settler is the optional Ticker extension for sleepers that charge the
// cycles they sleep through lazily, in bulk, instead of one Tick at a time.
// The engine calls Settle(now) on every registered Settler before the
// sampler and interval hooks run and before Run/RunUntil return, so every
// counter a hook or a caller reads is current. Settle must charge exactly
// what the Ticks of the slept cycles up to and including through would
// have charged, and nothing for a ticker that is awake.
type Settler interface {
	Ticker
	Settle(through uint64)
}

// TickerFunc adapts a plain function to the Ticker interface.
type TickerFunc func(now uint64)

// Tick implements Ticker.
func (f TickerFunc) Tick(now uint64) { f(now) }

// noTicker is Engine.ticking outside the tick phase.
const noTicker = int(^uint(0) >> 1)

// Engine is the simulation clock. The zero value is not usable; call New.
//
//nomad:owner shared
//nomad:ephemeral event-engine bookkeeping; the interval digest chain derived from it is the observable record
type Engine struct {
	now      uint64
	executed uint64
	sched    *WheelScheduler
	tickers  []Ticker
	settlers []Settler

	// Dormancy state. awake is a bitset over ticker ids (registration
	// order) with nAwake bits set; wakeAt[id] is a sleeping ticker's timed
	// wake (NoWork when it has none or is awake) and nextWake a lower bound
	// on the earliest of them (a Wake may leave it stale-low, which only
	// costs one rescan). ticking is the id whose Tick is running (noTicker
	// outside the tick phase). skipped/jumps count the cycles advanced with
	// no ticker awake and the jumps that advanced them.
	fastForward bool
	awake       []uint64
	nAwake      int
	wakeAt      []uint64
	nextWake    uint64
	ticking     int
	skipped     uint64
	jumps       uint64

	// Sampling hook: fn runs every sampleEvery cycles (metrics time
	// series). Kept separate from tickers because it fires at window
	// granularity, not per cycle.
	sampleEvery uint64
	sampleFn    func(now uint64)
	nextSample  uint64

	// Interval hook: a second, coarser windowed hook (default 100k cycles)
	// used for timeline telemetry and progress reporting. Re-registering it
	// re-anchors the phase, which is how interval boundaries are aligned to
	// the region-of-interest start.
	intervalEvery uint64
	intervalFn    func(now uint64)
	nextInterval  uint64
}

// DefaultInterval is the interval-hook period (in cycles) used when a caller
// passes 0 to SetInterval.
const DefaultInterval = 100_000

// New returns an Engine at cycle 0 with no pending work. Dormancy is
// enabled by default; it only takes effect for tickers that Sleep, so
// engines driving plain Tickers tick them every cycle.
func New() *Engine {
	return &Engine{fastForward: true, nextWake: NoWork, ticking: noTicker, sched: NewWheelScheduler()}
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// AddTicker registers t, awake, and returns its ticker id for Sleep and
// Wake. Tickers tick in registration order.
func (e *Engine) AddTicker(t Ticker) int {
	id := len(e.tickers)
	e.tickers = append(e.tickers, t)
	e.wakeAt = append(e.wakeAt, NoWork)
	if id>>6 == len(e.awake) {
		e.awake = append(e.awake, 0)
	}
	e.awake[id>>6] |= 1 << (id & 63)
	e.nAwake++
	if s, ok := t.(Settler); ok {
		e.settlers = append(e.settlers, s)
	}
	return id
}

// Sleep stops ticking ticker id until cycle until (NoWork: until a Wake).
// A ticker calls it from inside its own Tick. It reports whether the ticker
// is now asleep: with fast-forward off the engine keeps every ticker awake,
// which makes the stepped engine the reference dormancy is checked against.
func (e *Engine) Sleep(id int, until uint64) bool {
	if !e.fastForward {
		return false
	}
	if check.Enabled {
		check.Assert(e.ticking == id, "sim: ticker %d sleeps outside its own Tick", id)
		check.Assert(until > e.now+1, "sim: ticker %d sleeps until %d at cycle %d", id, until, e.now)
	}
	e.awake[id>>6] &^= 1 << (id & 63)
	e.nAwake--
	e.wakeAt[id] = until
	if until < e.nextWake {
		e.nextWake = until
	}
	return true
}

// Wake makes ticker id tick again from the next tick phase that reaches
// it: later this cycle if the tick phase is still before id, otherwise next
// cycle. Waking an awake ticker is a no-op.
func (e *Engine) Wake(id int) {
	bit := uint64(1) << (id & 63)
	if e.awake[id>>6]&bit != 0 {
		return
	}
	e.awake[id>>6] |= bit
	e.nAwake++
	e.wakeAt[id] = NoWork
}

// TickedThrough returns the last cycle ticker id has been ticked for, or
// would have been had it been awake: the previous cycle while the tick
// phase has not yet reached id, the current cycle otherwise. A sleeper
// settles through it before any change that alters what its slept ticks
// would have charged.
func (e *Engine) TickedThrough(id int) uint64 {
	if e.ticking < id {
		return e.now - 1
	}
	return e.now
}

// SetFastForward enables or disables dormancy. It is on by default;
// disabling wakes every sleeper and turns Sleep into a no-op, so every
// ticker ticks every cycle (the -no-ff escape hatch, and the reference
// behaviour the equivalence tests compare against).
func (e *Engine) SetFastForward(on bool) {
	e.fastForward = on
	if !on {
		for id := range e.tickers {
			e.Wake(id)
		}
	}
}

// FastForwardEnabled reports whether dormancy is switched on.
func (e *Engine) FastForwardEnabled() bool { return e.fastForward }

// SkippedCycles returns the total cycles advanced while no ticker was awake.
// Deliberately not part of the metrics snapshot: it differs between
// fast-forward on and off, and snapshots must be byte-identical across the
// two (it surfaces through the host-side self-profile instead).
func (e *Engine) SkippedCycles() uint64 { return e.skipped }

// Jumps returns the number of all-asleep jumps taken.
func (e *Engine) Jumps() uint64 { return e.jumps }

// Schedule runs fn delay cycles from now. A delay of 0 runs fn later in the
// current cycle (after already-queued same-cycle events).
func (e *Engine) Schedule(delay uint64, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at the given absolute cycle, which must not be in the past.
func (e *Engine) At(cycle uint64, fn func()) {
	if cycle < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now is %d", cycle, e.now))
	}
	e.sched.ScheduleAt(cycle, fn)
}

// SetSampler registers fn to run every `every` cycles, after that cycle's
// tickers and events. The metrics registry hangs its time-series sampling
// off this hook. A nil fn or zero period disables sampling.
func (e *Engine) SetSampler(every uint64, fn func(now uint64)) {
	if every == 0 || fn == nil {
		e.sampleFn = nil
		return
	}
	e.sampleEvery = every
	e.sampleFn = fn
	e.nextSample = e.now + every
}

// SampleWindow returns the configured sampling period (0 when disabled).
func (e *Engine) SampleWindow() uint64 {
	if e.sampleFn == nil {
		return 0
	}
	return e.sampleEvery
}

// SetInterval registers fn to run every `every` cycles (0 selects
// DefaultInterval), after that cycle's tickers, events, and sampler. The
// first firing is exactly `every` cycles from now: re-registering at the
// region-of-interest boundary re-anchors the phase so interval windows align
// with the measured region. A nil fn disables the hook.
//
// Boundary exactness is a contract: the hook fires at every elapsed
// boundary with the boundary cycle as now, and fast-forward jumps never
// pass nextInterval (jump bounds on it), so hook-driven captures — the
// metrics timeline and the interval digest chains — observe identical
// machine state at identical cycles with fast-forward on and off.
func (e *Engine) SetInterval(every uint64, fn func(now uint64)) {
	if fn == nil {
		e.intervalFn = nil
		return
	}
	if every == 0 {
		every = DefaultInterval
	}
	e.intervalEvery = every
	e.intervalFn = fn
	e.nextInterval = e.now + every
}

// Interval returns the configured interval period (0 when disabled).
func (e *Engine) Interval() uint64 {
	if e.intervalFn == nil {
		return 0
	}
	return e.intervalEvery
}

// Executed returns the number of events run so far — the denominator of the
// simulator's own events/sec throughput (host self-profiling).
func (e *Engine) Executed() uint64 { return e.executed }

// Step advances the clock by one cycle: any event still due at the current
// cycle first (events scheduled for cycle N outside a Step — engine setup at
// cycle 0, hook callbacks — run before cycle N ends, observing Now() == N),
// then the timed wakes due at the new cycle, then the awake tickers, then
// every event due at the new cycle (including events those events schedule
// for the same cycle), then the sampler and interval hooks for every window
// boundary that has elapsed.
func (e *Engine) Step() {
	// Unconditional Advance: besides draining stragglers, it slides the
	// scheduler's clock to e.now, so events the tickers are about to
	// schedule take the wheel's O(1) near-window path even right after a
	// jump.
	e.executed += e.sched.Advance(e.now)
	e.now++
	if e.now >= e.nextWake {
		e.wakeDue()
	}
	// The awake set is re-read after every tick, so a ticker that a
	// lower-id ticker wakes still ticks this cycle.
	for id := e.nextAwake(0); id >= 0; id = e.nextAwake(id + 1) {
		e.ticking = id
		e.tickers[id].Tick(e.now)
	}
	e.ticking = noTicker
	e.executed += e.sched.Advance(e.now)
	// Both hooks catch up to every elapsed boundary, each firing with the
	// boundary cycle as now, so a multi-window advance cannot shift the
	// window phase. (Single-cycle steps hit each boundary exactly; the
	// loops also keep the phase honest should the clock ever move faster.)
	if (e.sampleFn != nil && e.now >= e.nextSample) || (e.intervalFn != nil && e.now >= e.nextInterval) {
		e.settle()
	}
	if e.sampleFn != nil {
		for e.now >= e.nextSample {
			boundary := e.nextSample
			e.nextSample += e.sampleEvery
			e.sampleFn(boundary)
			if e.sampleFn == nil {
				break
			}
		}
	}
	if e.intervalFn != nil {
		for e.now >= e.nextInterval {
			boundary := e.nextInterval
			e.nextInterval += e.intervalEvery
			e.intervalFn(boundary)
			if e.intervalFn == nil {
				break
			}
		}
	}
}

// nextAwake returns the lowest awake ticker id at or above id, or -1.
func (e *Engine) nextAwake(id int) int {
	w := id >> 6
	if w >= len(e.awake) {
		return -1
	}
	word := e.awake[w] &^ (1<<(id&63) - 1)
	for word == 0 {
		w++
		if w == len(e.awake) {
			return -1
		}
		word = e.awake[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// wakeDue wakes every sleeper whose timed wake has come and recomputes
// nextWake over the rest.
func (e *Engine) wakeDue() {
	next := NoWork
	for id, at := range e.wakeAt {
		switch {
		case at <= e.now:
			e.Wake(id)
		case at < next:
			next = at
		}
	}
	e.nextWake = next
}

// settle brings every lazily-accounted sleeper up to date through now.
func (e *Engine) settle() {
	for _, s := range e.settlers {
		s.Settle(e.now)
	}
}

// jump advances the clock, while no ticker is awake, to just before the
// earliest cycle at which anything can happen — a timed wake, a due event,
// a hook boundary — never past limit (the last cycle the caller may
// reach). The Step that follows lands on that cycle, so ticker/event/hook
// ordering there is identical to the stepped engine.
func (e *Engine) jump(limit uint64) {
	target := limit
	if due := e.sched.NextDue(); due < target {
		target = due
	}
	if e.nextWake < target {
		target = e.nextWake
	}
	if e.sampleFn != nil && e.nextSample < target {
		target = e.nextSample
	}
	if e.intervalFn != nil && e.nextInterval < target {
		target = e.nextInterval
	}
	if target <= e.now+1 {
		return
	}
	if check.Enabled {
		check.Assert(e.nAwake == 0, "sim: jump with %d tickers awake", e.nAwake)
		check.Assert(target <= limit, "sim: jump to %d passes caller limit %d", target, limit)
	}
	e.skipped += target - e.now - 1
	e.jumps++
	e.now = target - 1
}

// Run advances the clock by cycles cycles, jumping across spans in which no
// ticker is awake (the observable end state is identical either way).
func (e *Engine) Run(cycles uint64) {
	end := e.now + cycles
	for e.now < end {
		if e.nAwake == 0 && e.fastForward {
			e.jump(end)
		}
		e.Step()
	}
	e.settle()
}

// RunUntil advances the clock until pred returns true or maxCycles elapse.
// It reports whether pred was satisfied. pred is evaluated at every cycle
// the engine actually executes; jumps skip only spans in which no ticker,
// event, or hook runs, so a pred that depends on simulation progress
// (retired instructions, completed events) is checked at exactly the cycles
// where its value can change. Sleepers are settled only when RunUntil
// returns, so pred must not read their lazily charged stall counters.
func (e *Engine) RunUntil(pred func() bool, maxCycles uint64) bool {
	end := e.now + maxCycles
	for e.now < end {
		if pred() {
			e.settle()
			return true
		}
		if e.nAwake == 0 && e.fastForward {
			e.jump(end)
		}
		e.Step()
	}
	e.settle()
	return pred()
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.sched.Pending() }
