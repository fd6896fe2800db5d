// Interval digest chains: a cheap chained FNV-1a 64 digest of the whole
// registry, folded once per interval window while a chain is active. Two
// runs whose simulated behavior is identical produce byte-identical chains;
// the FIRST window whose digests differ localizes a divergence to one
// interval without comparing full snapshots — the primitive diag.Bisect and
// cmd/nomaddiff build on.
//
// Chain construction: digest[i] = H(digest[i-1] || schema || state_i) where
// H is FNV-1a 64 over 8-byte little-endian words, schema is a one-time fold
// of every registered metric name in sorted order, and state_i folds every
// counter value, gauge bit pattern, and histogram count/sum at the window's
// end cycle. Folding the previous digest means a divergence in any window
// perturbs every later digest, so comparing final digests alone already
// answers "did these runs behave identically?".
//
// Determinism: values derive from simulated state only, the fold order is
// the sorted registration order fixed at BeginDigests, and interval
// boundaries are exact cycle counts re-anchored at MarkROI — the chain is
// byte-identical same-seed and across fast-forward on/off.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// DigestAlgo identifies the chain construction; bump only with a migration
// note in DESIGN.md.
const DigestAlgo = "fnv64a-chain/1"

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold folds one 64-bit word into an FNV-1a 64 state, byte-wise
// little-endian (the canonical FNV-1a byte loop, unrolled over the word).
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// fnvFoldString folds a string byte-wise into an FNV-1a 64 state.
func fnvFoldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// BeginDigests starts (or restarts) digest-chain collection with the given
// interval, anchored at cycle now: the first window covers (now, now+every].
// Prior windows are discarded, so calling it at the ROI boundary aligns the
// chain exactly with the measured region (MarkROI re-anchors an active chain
// the same way it re-anchors the timeline). The fold order — every counter,
// gauge, and histogram in sorted-name order — is fixed here, so call it
// after registration is complete.
func (r *Registry) BeginDigests(now, every uint64) {
	r.digActive = true
	r.digStart = now
	r.digLast = now
	r.digEvery = every
	r.digCycles = r.digCycles[:0]
	r.digests = r.digests[:0]

	r.digCounterIdx = sortedIdx(len(r.counters), func(i int) string { return r.counters[i].name })
	r.digGaugeIdx = sortedIdx(len(r.gauges), func(i int) string { return r.gauges[i].name })
	r.digHistIdx = sortedIdx(len(r.hists), func(i int) string { return r.hists[i].name })

	// The schema digest folds every name once, up front, so per-window folds
	// touch only values: the name set cannot change mid-run.
	h := uint64(fnvOffset64)
	h = fnvFoldString(h, DigestAlgo)
	for _, i := range r.digCounterIdx {
		h = fnvFoldString(h, r.counters[i].name)
	}
	for _, i := range r.digGaugeIdx {
		h = fnvFoldString(h, r.gauges[i].name)
	}
	for _, i := range r.digHistIdx {
		h = fnvFoldString(h, r.hists[i].name)
	}
	r.digSchema = h
}

// sortedIdx returns 0..n-1 sorted by the name each index resolves to.
func sortedIdx(n int, name func(int) string) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return name(idx[a]) < name(idx[b]) })
	return idx
}

// sampleDigest closes the digest window ending at cycle now. SampleInterval
// calls it from the engine's interval hook; it is a no-op until
// BeginDigests.
func (r *Registry) sampleDigest(now uint64) {
	if !r.digActive || now <= r.digLast {
		return
	}
	prev := uint64(0)
	if n := len(r.digests); n > 0 {
		prev = r.digests[n-1]
	}
	h := fnvFold(r.digSchema, prev)
	for _, i := range r.digCounterIdx {
		h = fnvFold(h, r.counters[i].read())
	}
	for _, i := range r.digGaugeIdx {
		h = fnvFold(h, math.Float64bits(r.gauges[i].read()))
	}
	for _, i := range r.digHistIdx {
		hist := r.hists[i].h
		h = fnvFold(h, hist.count)
		h = fnvFold(h, hist.sum)
	}
	r.digCycles = append(r.digCycles, now-r.digStart)
	r.digests = append(r.digests, h)
	r.digLast = now
}

// DigestChain is the collected chain in serializable form: Digests[i] is the
// chained digest at the end of window i, Cycles[i] that window's end cycle
// relative to StartCycle (the MarkROI cycle). Digests are fixed-width
// lowercase hex so the JSON survives tools that parse numbers as float64.
type DigestChain struct {
	// Algo names the chain construction (DigestAlgo).
	Algo string `json:"algo"`
	// Interval is the window length in cycles.
	Interval uint64 `json:"interval"`
	// StartCycle is the absolute engine cycle the chain is anchored at.
	StartCycle uint64 `json:"start_cycle"`
	// Cycles holds window-end cycles relative to StartCycle.
	Cycles []uint64 `json:"cycles"`
	// Digests holds one 16-hex-digit chained digest per window.
	Digests []string `json:"digests"`
}

// Windows returns the number of collected windows.
func (d *DigestChain) Windows() int {
	if d == nil {
		return 0
	}
	return len(d.Digests)
}

// Final returns the last digest in the chain ("" when empty). Because every
// digest folds its predecessor, equal finals over equal window counts mean
// the whole chains agree.
func (d *DigestChain) Final() string {
	if d == nil || len(d.Digests) == 0 {
		return ""
	}
	return d.Digests[len(d.Digests)-1]
}

// FirstDivergence returns the index of the first window where the two chains
// disagree — different digest or different end cycle — or the shorter length
// when one chain is a strict prefix of the other, or -1 when they are
// identical. A nil chain is treated as empty.
func (d *DigestChain) FirstDivergence(o *DigestChain) int {
	dn, on := d.Windows(), o.Windows()
	n := dn
	if on < n {
		n = on
	}
	for i := 0; i < n; i++ {
		if d.Digests[i] != o.Digests[i] || d.Cycles[i] != o.Cycles[i] {
			return i
		}
	}
	if dn != on {
		return n
	}
	return -1
}

// digestSnapshot renders the collected chain, or nil when inactive.
func (r *Registry) digestSnapshot() *DigestChain {
	if !r.digActive {
		return nil
	}
	d := &DigestChain{
		Algo:       DigestAlgo,
		Interval:   r.digEvery,
		StartCycle: r.digStart,
		Cycles:     append([]uint64(nil), r.digCycles...),
		Digests:    make([]string, len(r.digests)),
	}
	for i, v := range r.digests {
		d.Digests[i] = fmt.Sprintf("%016x", v)
	}
	return d
}
