package nomad

import (
	"sort"

	"nomad/internal/metrics"
)

// Snapshot is the full region-of-interest metrics snapshot of one run: every
// counter, gauge, histogram and time series the simulator maintains, keyed by
// stable dotted names (documented in DESIGN.md). The scalar Result fields are
// derived views over it.
//
// Counter values are ROI deltas; gauges are instantaneous at ROI end;
// histogram count/sum/buckets are ROI deltas while min/max span the whole
// run; series are sampled every Window cycles during the ROI.
//
// The JSON encoding is deterministic: map keys marshal sorted, and every
// value derives from simulated state, never the wall clock — two same-seed
// runs marshal byte-identically.
type Snapshot struct {
	// Cycles is the span covered by the snapshot (the measured ROI).
	Cycles uint64 `json:"cycles"`
	// Window is the series sampling period in cycles.
	Window     uint64               `json:"window,omitempty"`
	Counters   map[string]uint64    `json:"counters"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]Histogram `json:"histograms,omitempty"`
	Series     map[string]Series    `json:"series,omitempty"`
	// Trace summarises the event/span capture; nil unless tracing was
	// enabled (Config.TraceDepth / Config.SpanDepth).
	Trace *TraceSummary `json:"trace,omitempty"`
	// Timeline is the interval time-series capture; nil unless
	// Config.Timeline was set.
	Timeline *Timeline `json:"timeline,omitempty"`
	// Digests is the interval digest chain; nil unless Telemetry.Digests
	// was set.
	Digests *DigestChain `json:"digests,omitempty"`
}

// TraceSummary counts what the trace rings captured during the ROI. Dropped
// values are ring overwrites: raise the depth (or the span sampling period)
// if they matter for the analysis.
type TraceSummary struct {
	Events        uint64 `json:"events"`
	EventsDropped uint64 `json:"events_dropped"`
	Spans         uint64 `json:"spans"`
	SpansDropped  uint64 `json:"spans_dropped"`
}

// Counter returns a counter by name, 0 if absent (schemes register only the
// metrics they have, so absence reads as zero).
func (s *Snapshot) Counter(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Gauge returns a gauge by name, 0 if absent.
func (s *Snapshot) Gauge(name string) float64 {
	if s == nil {
		return 0
	}
	return s.Gauges[name]
}

// Histogram is one latency/occupancy distribution in log2 buckets.
type Histogram struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	// Buckets lists only non-empty log2 buckets in ascending order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation.
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// HistogramBucket holds Count observations in the inclusive range [Lo, Hi].
type HistogramBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Series is one time series: Values[i] was sampled at cycle Cycles[i].
type Series struct {
	Window uint64    `json:"window"`
	Cycles []uint64  `json:"cycles"`
	Values []float64 `json:"values"`
}

// Timeline is the interval time-series capture of one run (Config.Timeline):
// one column per metric, one row per interval window of the measured region.
// Cycles[i] is the END of window i relative to StartCycle (the ROI boundary),
// so the first full window ends at exactly Interval cycles; a final partial
// window ends wherever the run did. Like the rest of the snapshot, the
// capture is deterministic — two same-seed runs marshal byte-identically.
type Timeline struct {
	// Interval is the window length in cycles.
	Interval uint64 `json:"interval"`
	// StartCycle is the absolute engine cycle the timeline is anchored at
	// (the MarkROI cycle).
	StartCycle uint64 `json:"start_cycle"`
	// Cycles holds window-end cycles relative to StartCycle.
	Cycles []uint64 `json:"cycles"`
	// Metrics maps each timeline metric name to its per-window column,
	// index-aligned with Cycles.
	Metrics map[string][]float64 `json:"metrics"`
}

// Windows returns the number of collected interval rows.
func (t *Timeline) Windows() int {
	if t == nil {
		return 0
	}
	return len(t.Cycles)
}

// Metric returns one column by name, nil if absent.
func (t *Timeline) Metric(name string) []float64 {
	if t == nil {
		return nil
	}
	return t.Metrics[name]
}

// MetricNames returns the collected column names, sorted.
func (t *Timeline) MetricNames() []string {
	if t == nil {
		return nil
	}
	names := make([]string, 0, len(t.Metrics))
	for name := range t.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DigestChain is the interval digest-chain capture of one run
// (Telemetry.Digests): Digests[i] is a chained FNV-1a 64 digest (16 hex
// digits) of the full metrics registry at the end of interval window i,
// folding in Digests[i-1], so a behavioral divergence in any window
// perturbs every later digest. Cycles[i] is that window's end relative to
// StartCycle (the ROI boundary). Same-seed runs produce byte-identical
// chains with fast-forward on and off; the first differing window
// between two runs localizes their divergence (see cmd/nomaddiff).
type DigestChain struct {
	// Algo names the chain construction ("fnv64a-chain/1").
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

// Final returns the last digest in the chain ("" when empty): a one-value
// answer to "did these runs behave identically end to end?".
func (d *DigestChain) Final() string {
	if d == nil || len(d.Digests) == 0 {
		return ""
	}
	return d.Digests[len(d.Digests)-1]
}

// FirstDivergence returns the index of the first window where the two
// chains disagree — different digest or different end cycle — or the
// shorter length when one chain is a strict prefix of the other, or -1 when
// they are identical. A nil chain is treated as empty.
func (d *DigestChain) FirstDivergence(o *DigestChain) int {
	return d.internal().FirstDivergence(o.internal())
}

func (d *DigestChain) internal() *metrics.DigestChain {
	if d == nil {
		return nil
	}
	return &metrics.DigestChain{
		Algo: d.Algo, Interval: d.Interval, StartCycle: d.StartCycle,
		Cycles: d.Cycles, Digests: d.Digests,
	}
}

func fromSnapshot(s *metrics.Snapshot) *Snapshot {
	if s == nil {
		return nil
	}
	out := &Snapshot{
		Cycles:   s.Cycles,
		Window:   s.Window,
		Counters: s.Counters,
		Gauges:   s.Gauges,
	}
	if s.Trace != nil {
		t := TraceSummary(*s.Trace)
		out.Trace = &t
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]Histogram, len(s.Histograms))
		for name, h := range s.Histograms {
			buckets := make([]HistogramBucket, len(h.Buckets))
			for i, b := range h.Buckets {
				buckets[i] = HistogramBucket(b)
			}
			out.Histograms[name] = Histogram{
				Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
				Buckets: buckets,
			}
		}
	}
	if len(s.Series) > 0 {
		out.Series = make(map[string]Series, len(s.Series))
		for name, sr := range s.Series {
			out.Series[name] = Series{Window: sr.Window, Cycles: sr.Cycles, Values: sr.Values}
		}
	}
	if s.Timeline != nil {
		out.Timeline = &Timeline{
			Interval:   s.Timeline.Interval,
			StartCycle: s.Timeline.StartCycle,
			Cycles:     s.Timeline.Cycles,
			Metrics:    s.Timeline.Metrics,
		}
	}
	if s.Digests != nil {
		out.Digests = &DigestChain{
			Algo:       s.Digests.Algo,
			Interval:   s.Digests.Interval,
			StartCycle: s.Digests.StartCycle,
			Cycles:     s.Digests.Cycles,
			Digests:    s.Digests.Digests,
		}
	}
	return out
}
