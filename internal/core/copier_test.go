package core

import (
	"testing"

	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/sim"
)

// TestCopier checks a page copy issues one read and one write per
// sub-block and calls done exactly once, including when the pooled op is
// reused by a second copy.
func TestCopier(t *testing.T) {
	eng := sim.New()
	hbm, ddr := testDevices(eng)
	c := NewCopier(eng, 4)
	for i := uint64(1); i <= 2; i++ {
		calls := 0
		c.Copy(ddr, 5, hbm, 9, mem.KindFill, func() { calls++ })
		waitFor(t, eng, func() bool { return calls > 0 }, 200_000)
		eng.Run(10_000) // nothing may fire after the last write
		if calls != 1 {
			t.Fatalf("copy %d: done called %d times, want 1", i, calls)
		}
		if ddr.Stats().Reads != i*mem.SubBlocksPerPage || hbm.Stats().Writes != i*mem.SubBlocksPerPage {
			t.Fatalf("copy %d: moved %d reads / %d writes", i, ddr.Stats().Reads, hbm.Stats().Writes)
		}
		if ddr.Stats().Writes != 0 || hbm.Stats().Reads != 0 {
			t.Fatalf("copy %d: traffic in the wrong direction: ddr writes %d, hbm reads %d", i, ddr.Stats().Writes, hbm.Stats().Reads)
		}
	}
	if len(c.ops) != 1 {
		t.Fatalf("%d pooled ops after two sequential copies, want 1", len(c.ops))
	}
}

// TestCopierAllocFree pins a warmed page copy, end to end, at zero heap
// allocations. Under the invariants build tag the DRAM layer's assertions
// box their arguments on every burst, so there the copies only have to
// complete.
func TestCopierAllocFree(t *testing.T) {
	eng := sim.New()
	hbm, ddr := testDevices(eng)
	c := NewCopier(eng, 2)
	finished := false
	done := func() { finished = true }
	pred := func() bool { return finished }
	copyPage := func() {
		finished = false
		c.Copy(ddr, 5, hbm, 9, mem.KindFill, done)
		eng.RunUntil(pred, 200_000)
	}
	// Warm the DRAM request pools and the timing wheel: a copy spans about
	// one wheel revolution, so it takes many copies before every bucket
	// has held events.
	for range 200 {
		copyPage()
	}
	if a := testing.AllocsPerRun(20, copyPage); a != 0 && !check.Enabled {
		t.Fatalf("page copy: %v allocs/op", a)
	}
	if !finished {
		t.Fatal("copy never completed")
	}
}

// BenchmarkCopierCopy times one TDC-paced (two reads in flight) 4 KB page
// copy from DDR to HBM, including the DRAM ticks it takes.
func BenchmarkCopierCopy(b *testing.B) {
	eng := sim.New()
	hbm, ddr := testDevices(eng)
	c := NewCopier(eng, 2)
	finished := false
	done := func() { finished = true }
	pred := func() bool { return finished }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		finished = false
		c.Copy(ddr, uint64(i), hbm, uint64(i), mem.KindFill, done)
		if !eng.RunUntil(pred, 200_000) {
			b.Fatal("copy never completed")
		}
	}
}
