package core

import (
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/sim"
)

// Copier performs OS-driven page copies without back-end hardware. The
// blocking TDC scheme uses it both for miss-handling cache fills (the
// application thread waits for the copy to finish) and for eviction
// writebacks (fire-and-forget from the background daemon).
//
// A copy moves one 4 KB page as 64 sub-block reads from the source device
// followed by 64 writes to the destination, with a bounded number of reads
// in flight — the same data movement the NOMAD back-end performs, minus the
// PCSHRs, buffersharing, and critical-data-first logic.
//
//nomad:owner channel
type Copier struct {
	eng              *sim.Engine
	maxReadsInFlight int
	// ops is the freelist of pooled in-flight copies.
	//nomad:ephemeral page-copy working state; divergence surfaces in the registered DRAM and scheme counters
	ops []*copyOp
}

// copyOp is one pooled in-flight page copy. readFns[si] is the permanent
// read-done callback of sub-block si and writeFn the shared write-done
// callback, all built once per instance, so a copy allocates nothing.
//
//nomad:owner channel
//nomad:ephemeral page-copy working state; divergence surfaces in the registered DRAM and scheme counters
type copyOp struct {
	src, dst           *dram.Device
	srcFrame, dstFrame uint64
	kind               mem.Kind
	done               mem.Done
	nextRead           uint
	reads              int
	writesDone         uint
	readFns            [mem.SubBlocksPerPage]func()
	writeFn            func()
}

// NewCopier builds a Copier with the given read pacing (<=0 selects 8).
func NewCopier(eng *sim.Engine, maxReadsInFlight int) *Copier {
	if maxReadsInFlight <= 0 {
		maxReadsInFlight = 8
	}
	return &Copier{eng: eng, maxReadsInFlight: maxReadsInFlight}
}

// getOp takes a copyOp from the freelist, building the instance and its
// permanent callbacks only on first use.
func (c *Copier) getOp() *copyOp {
	if n := len(c.ops); n > 0 {
		op := c.ops[n-1]
		c.ops = c.ops[:n-1]
		return op
	}
	op := &copyOp{} //nomadlint:ignore poolalloc -- freelist constructor: the one allocation the pool amortizes
	for si := range op.readFns {
		op.readFns[si] = func() { c.readDone(op, uint(si)) }
	}
	op.writeFn = func() { c.writeDone(op) }
	return op
}

// Copy moves srcFrame on src to dstFrame on dst, tagging all traffic with
// kind. done (may be nil) fires when the last destination write completes.
func (c *Copier) Copy(src *dram.Device, srcFrame uint64, dst *dram.Device, dstFrame uint64, kind mem.Kind, done mem.Done) {
	op := c.getOp()
	op.src, op.srcFrame, op.dst, op.dstFrame = src, srcFrame, dst, dstFrame
	op.kind, op.done = kind, done
	op.nextRead, op.reads, op.writesDone = 0, 0, 0
	c.issue(op)
}

// issue tops the copy's reads up to the pacing limit, in sub-block order.
func (c *Copier) issue(op *copyOp) {
	for op.reads < c.maxReadsInFlight && op.nextRead < mem.SubBlocksPerPage {
		si := op.nextRead
		op.nextRead++
		op.reads++
		op.src.Access(mem.AddrInFrame(op.srcFrame, uint64(si)*mem.BlockSize), false, op.kind, false, op.readFns[si])
	}
}

// readDone writes sub-block si to the destination and refills the read
// window.
func (c *Copier) readDone(op *copyOp, si uint) {
	op.reads--
	op.dst.Access(mem.AddrInFrame(op.dstFrame, uint64(si)*mem.BlockSize), true, op.kind, false, op.writeFn)
	c.issue(op)
}

// writeDone counts a destination write; the last one recycles the op, then
// fires done (release-before-callback: done may start a new copy and reuse
// the op).
func (c *Copier) writeDone(op *copyOp) {
	op.writesDone++
	if op.writesDone < mem.SubBlocksPerPage {
		return
	}
	done := op.done
	op.done = nil
	c.ops = append(c.ops, op)
	if done != nil {
		done()
	}
}
