package sim

import "fmt"

// Scheduler is the event-queue interface the differential tests and the
// scheduler benchmarks drive: WheelScheduler, the engine's queue, and
// HeapScheduler, the oracle it is checked against. Its methods carry the
// meaning documented on WheelScheduler.
type Scheduler interface {
	Schedule(delay uint64, fn func())
	ScheduleAt(cycle uint64, fn func())
	NextDue() uint64
	Advance(now uint64) uint64
	Pending() int
}

// HeapScheduler is the event queue the timing wheel replaced: a binary
// min-heap keyed by (cycle, seq). O(log n) per operation, but with a
// trivially auditable ordering proof, which is why it survives as the oracle
// the randomized differential tests compare the wheel against.
type HeapScheduler struct {
	now     uint64
	seq     uint64
	pending eventHeap
}

// NewHeapScheduler returns an empty heap scheduler at cycle 0.
func NewHeapScheduler() *HeapScheduler { return &HeapScheduler{} }

// Schedule implements Scheduler.
func (h *HeapScheduler) Schedule(delay uint64, fn func()) { h.ScheduleAt(h.now+delay, fn) }

// ScheduleAt implements Scheduler.
func (h *HeapScheduler) ScheduleAt(cycle uint64, fn func()) {
	if cycle < h.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now is %d", cycle, h.now))
	}
	if fn == nil {
		panic("sim: scheduling a nil event")
	}
	h.seq++
	h.pending.push(event{cycle: cycle, seq: h.seq, fn: fn})
}

// NextDue implements Scheduler.
func (h *HeapScheduler) NextDue() uint64 {
	if len(h.pending) == 0 {
		return NoEvent
	}
	return h.pending[0].cycle
}

// Advance implements Scheduler.
func (h *HeapScheduler) Advance(now uint64) uint64 {
	if now > h.now {
		h.now = now
	}
	var ran uint64
	for len(h.pending) > 0 && h.pending[0].cycle <= h.now {
		ev := h.pending.pop()
		ran++
		ev.fn()
	}
	return ran
}

// Pending implements Scheduler.
func (h *HeapScheduler) Pending() int { return len(h.pending) }
