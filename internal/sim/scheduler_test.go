package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// schedTrace is the observable behaviour of one scheduler run: every event
// dispatch in order, and NextDue as observed before every advance. Two
// schedulers satisfying the determinism contract must produce identical
// traces for the same program.
type schedTrace struct {
	fired []int
	due   []uint64
}

// runProgram drives s through a randomized event program: a burst of cycle-0
// events, top-level schedules across every delay class the wheel
// distinguishes (same-cycle, near-wheel, far overflow), re-scheduling from
// inside running handlers (including delay 0 into the cycle being drained),
// repeated advances to the same cycle, and fast-forward-style jumps that
// overshoot NextDue. The rand stream is consumed in dispatch order, so a
// scheduler that deviates from the reference order also derails the program
// itself — small ordering bugs snowball instead of hiding.
func runProgram(t *testing.T, s Scheduler, seed int64) schedTrace {
	t.Helper()
	const maxEvents = 4000
	rng := rand.New(rand.NewSource(seed))
	var tr schedTrace
	var now uint64
	nextID := 0

	// delay picks from the wheel's interesting delay classes; 0 means "the
	// current cycle" and from inside a handler lands in the bucket being
	// drained.
	delay := func() uint64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(16)) + 1 // hot-path latencies
		case 2:
			return uint64(rng.Intn(400)) + 40 // DRAM-ish
		case 3:
			return uint64(rng.Intn(wheelSize-1)) + 1 // anywhere in the window
		case 4:
			return uint64(rng.Intn(4*wheelSize)) + wheelSize // overflow calendar
		default:
			return uint64(rng.Intn(100_000)) + wheelSize // far overflow
		}
	}

	var schedule func(at uint64)
	schedule = func(at uint64) {
		id := nextID
		nextID++
		s.ScheduleAt(at, func() {
			tr.fired = append(tr.fired, id)
			for rng.Intn(3) == 0 && nextID < maxEvents {
				// now is the advance target, so a 0 delay lands at or after
				// the cycle being drained but within the running Advance —
				// the re-scheduling-from-a-handler case the contract pins.
				schedule(now + delay())
			}
		})
	}

	// Cycle-0 burst, then a seed population across all delay classes.
	for i := 0; i < 8; i++ {
		schedule(0)
	}
	for i := 0; i < 32; i++ {
		schedule(delay())
	}

	for s.Pending() > 0 {
		due := s.NextDue()
		tr.due = append(tr.due, due)
		target := due
		switch rng.Intn(4) {
		case 0:
			// Fast-forward-style jump: overshoot the next event, forcing a
			// multi-bucket (and possibly overflow-migrating) drain.
			target = due + uint64(rng.Intn(3*wheelSize))
		case 1:
			target = due + uint64(rng.Intn(8))
		}
		if target < now {
			target = now
		}
		now = target
		s.Advance(now)
		if rng.Intn(4) == 0 && nextID < maxEvents {
			// Top-up mid-run, sometimes straight into the already-drained
			// current cycle followed by a second Advance to the same now —
			// the engine's pre-drain pattern.
			schedule(now + delay())
			if rng.Intn(2) == 0 {
				schedule(now)
				s.Advance(now)
			}
		}
	}
	return tr
}

// TestSchedulerDifferential drives the timing wheel and the binary-heap
// oracle through identical randomized event programs and requires identical
// dispatch order and identical NextDue at every observation point.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		heap := runProgram(t, NewHeapScheduler(), seed)
		wheel := runProgram(t, NewWheelScheduler(), seed)
		if len(heap.fired) == 0 {
			t.Fatalf("seed %d: empty program", seed)
		}
		if !reflect.DeepEqual(heap.fired, wheel.fired) {
			i := 0
			for i < len(heap.fired) && i < len(wheel.fired) && heap.fired[i] == wheel.fired[i] {
				i++
			}
			t.Fatalf("seed %d: dispatch order diverges at position %d (heap ran %d events, wheel %d)",
				seed, i, len(heap.fired), len(wheel.fired))
		}
		if !reflect.DeepEqual(heap.due, wheel.due) {
			t.Fatalf("seed %d: NextDue sequences diverge:\n heap:  %v\n wheel: %v", seed, heap.due, wheel.due)
		}
	}
}

// TestWheelOverflowMigrationFIFO pins the subtle half of the FIFO proof:
// events that migrate from the overflow calendar into a bucket must sort
// before any event scheduled directly into that bucket afterwards, because
// migration happens the moment the window first covers the cycle.
func TestWheelOverflowMigrationFIFO(t *testing.T) {
	w := NewWheelScheduler()
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	far := uint64(3 * wheelSize)
	w.ScheduleAt(far, rec(1))   // overflow
	w.ScheduleAt(far+1, rec(2)) // overflow, later cycle
	w.ScheduleAt(far, rec(3))   // overflow, same cycle as 1: FIFO after it
	w.Advance(far - 10)         // slides the window: 1,3 and 2 migrate
	w.ScheduleAt(far, rec(4))   // direct insert after migration
	w.Advance(far + 1)
	want := []int{1, 3, 4, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestWheelNextDueMemo pins the memoization contract: an earlier insert
// updates the cached value, a drain invalidates it, and sliding the window
// (which cannot change the pending set) keeps it.
func TestWheelNextDueMemo(t *testing.T) {
	w := NewWheelScheduler()
	w.ScheduleAt(100, func() {})
	if d := w.NextDue(); d != 100 {
		t.Fatalf("NextDue = %d, want 100", d)
	}
	w.ScheduleAt(40, func() {}) // earlier insert while memoized
	if d := w.NextDue(); d != 40 {
		t.Fatalf("NextDue after earlier insert = %d, want 40", d)
	}
	w.Advance(40) // drain invalidates
	if d := w.NextDue(); d != 100 {
		t.Fatalf("NextDue after drain = %d, want 100", d)
	}
	w.Advance(99) // slide only: pending set unchanged
	if d := w.NextDue(); d != 100 {
		t.Fatalf("NextDue after slide = %d, want 100", d)
	}
	w.Advance(100)
	if d := w.NextDue(); d != NoEvent {
		t.Fatalf("NextDue on empty = %d, want NoEvent", d)
	}
}

// benchPushPop is the event queue's steady-state busy pattern: schedule one
// event and advance one cycle against a background of pending work, the
// sequence every DRAM/cache callback follows. The wheel must report ~0
// allocs/op here.
func benchPushPop(b *testing.B, s Scheduler) {
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(uint64(i%16)+1, fn)
	}
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(4, fn)
		now++
		s.Advance(now)
	}
}

// benchBurst measures batched same-cycle dispatch: 64 events into one cycle,
// drained in one Advance — the wheel's bucket drain against the heap's 64
// pops.
func benchBurst(b *testing.B, s Scheduler) {
	fn := func() {}
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		for j := 0; j < 64; j++ {
			s.ScheduleAt(now, fn)
		}
		s.Advance(now)
	}
}

// benchNextDue measures the per-cycle idle poll (the fast-forward jump
// bound): NextDue with one far-future event pending. The wheel memoizes
// this; the heap peeks its root.
func benchNextDue(b *testing.B, s Scheduler) {
	s.Schedule(1<<20, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.NextDue() == NoEvent {
			b.Fatal("queue unexpectedly empty")
		}
	}
}

func BenchmarkSchedulerWheelPushPop(b *testing.B) { benchPushPop(b, NewWheelScheduler()) }
func BenchmarkSchedulerHeapPushPop(b *testing.B)  { benchPushPop(b, NewHeapScheduler()) }
func BenchmarkSchedulerWheelBurst(b *testing.B)   { benchBurst(b, NewWheelScheduler()) }
func BenchmarkSchedulerHeapBurst(b *testing.B)    { benchBurst(b, NewHeapScheduler()) }
func BenchmarkSchedulerWheelNextDue(b *testing.B) { benchNextDue(b, NewWheelScheduler()) }
func BenchmarkSchedulerHeapNextDue(b *testing.B)  { benchNextDue(b, NewHeapScheduler()) }
