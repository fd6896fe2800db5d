// Interval time-series telemetry: windowed columns of registry-derived
// values, sampled by the engine's interval hook (default every 100k
// simulated cycles). Unlike the per-window Series (8192-cycle samples of two
// whole-machine rates), timeline metrics are a configurable set of
// per-interval columns — IPC per core, DC hit rate, PCSHR occupancy
// high-water, bandwidth by category, row-conflict rate, MSHR occupancy —
// designed for Fig. 14-style transient analysis (burst phases, warm-up,
// tag-miss storms after MarkROI).
//
// Determinism: every value derives from simulated state only, interval
// boundaries are exact cycle counts re-anchored at MarkROI (the first window
// starts at ROI cycle 0), and the JSON encoding sorts map keys — two
// same-seed runs marshal byte-identical timelines.
package metrics

import "strings"

// intervalEntry is one registered timeline metric.
type intervalEntry struct {
	name string
	// prime re-baselines the closure's delta state at timeline start.
	prime func(now uint64)
	// sample returns the value of the window that just ended.
	sample func(now uint64) float64
	values []float64
}

// IntervalFunc registers a timeline metric sampled once per interval window
// while a timeline is active (BeginTimeline). prime is called at timeline
// start so delta-based closures can re-baseline; it may be nil. Names live
// in their own namespace (they appear under Snapshot.Timeline, not
// Counters) and are dropped silently when a filter (SetTimelineFilter) is
// set and no prefix matches — filtered metrics cost nothing.
func (r *Registry) IntervalFunc(name string, prime func(now uint64), sample func(now uint64) float64) {
	if r.inames == nil {
		r.inames = map[string]bool{}
	}
	if r.inames[name] {
		panic("metrics: duplicate interval metric " + name)
	}
	r.inames[name] = true
	if len(r.tlFilter) > 0 && !matchesPrefix(name, r.tlFilter) {
		return
	}
	r.intervals = append(r.intervals, intervalEntry{name: name, prime: prime, sample: sample})
}

func matchesPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// SetTimelineFilter restricts subsequent IntervalFunc registrations to names
// matching one of the given prefixes (empty keeps everything). Call it
// before components register, i.e. before RegisterMetrics runs.
func (r *Registry) SetTimelineFilter(prefixes []string) { r.tlFilter = prefixes }

// BeginTimeline starts (or restarts) timeline collection with the given
// interval, anchored at cycle now: the first window covers (now, now+every].
// Prior windows are discarded, so calling it at the ROI boundary aligns the
// timeline exactly with the measured region.
func (r *Registry) BeginTimeline(now, every uint64) {
	r.tlActive = true
	r.tlStart = now
	r.tlLast = now
	r.tlEvery = every
	r.tlCycles = r.tlCycles[:0]
	for i := range r.intervals {
		e := &r.intervals[i]
		e.values = e.values[:0]
		if e.prime != nil {
			e.prime(now)
		}
	}
}

// SampleInterval closes the interval window ending at cycle now: one value
// per registered timeline metric (after BeginTimeline) and one chained
// digest (after BeginDigests). The engine's interval hook calls it; each
// capture is independently a no-op until its Begin.
func (r *Registry) SampleInterval(now uint64) {
	if r.tlActive && now > r.tlLast {
		r.tlCycles = append(r.tlCycles, now-r.tlStart)
		for i := range r.intervals {
			e := &r.intervals[i]
			e.values = append(e.values, e.sample(now))
		}
		r.tlLast = now
	}
	r.sampleDigest(now)
}

// FinishTimeline closes the final (possibly partial) window at cycle now —
// timeline row and digest alike — so runs shorter than one interval still
// produce one of each. Call it once, after the simulation's last cycle and
// before Snapshot.
func (r *Registry) FinishTimeline(now uint64) { r.SampleInterval(now) }

// TimelineSnapshot is the collected timeline in serializable form: column
// per metric, one row per interval window. Cycles[i] is the END of window i
// relative to StartCycle (the MarkROI cycle), so the first full window ends
// at exactly Interval; a final partial window ends wherever the run did.
type TimelineSnapshot struct {
	Interval   uint64               `json:"interval"`
	StartCycle uint64               `json:"start_cycle"`
	Cycles     []uint64             `json:"cycles"`
	Metrics    map[string][]float64 `json:"metrics"`
}

// Windows returns the number of collected rows.
func (t *TimelineSnapshot) Windows() int {
	if t == nil {
		return 0
	}
	return len(t.Cycles)
}

// Metric returns one column by name, nil if absent.
func (t *TimelineSnapshot) Metric(name string) []float64 {
	if t == nil {
		return nil
	}
	return t.Metrics[name]
}

// timelineSnapshot renders the collected timeline, or nil when inactive.
func (r *Registry) timelineSnapshot() *TimelineSnapshot {
	if !r.tlActive {
		return nil
	}
	t := &TimelineSnapshot{
		Interval:   r.tlEvery,
		StartCycle: r.tlStart,
		Cycles:     append([]uint64(nil), r.tlCycles...),
		Metrics:    make(map[string][]float64, len(r.intervals)),
	}
	for i := range r.intervals {
		e := &r.intervals[i]
		t.Metrics[e.name] = append([]float64(nil), e.values...)
	}
	return t
}
