// Package metrics holds the storage types behind internal/obs, which
// declares, creates and exports them: counters, gauges, cumulative
// durations, duration histograms with percentiles, and time-binned
// series (Figure 9 plots update delay against wall time). It imports
// nothing from the repo.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge tracks an instantaneous level and its high-water mark. The
// fan-out pipeline uses one per mirror link to expose outbox depth, so
// both fields are atomics: Set sits on the per-link hot path and must
// not serialize against concurrent readers.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// raiseMax lifts the high-water mark to at least v. The CAS loop races
// only with other raisers, and each retry observes a strictly larger
// mark, so it terminates.
func (g *Gauge) raiseMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.raiseMax(v)
}

// Add adjusts the level by d and returns the new value.
func (g *Gauge) Add(d int64) int64 {
	v := g.v.Add(d)
	g.raiseMax(v)
	return v
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// TakeMax returns the high-water mark accumulated since the previous
// TakeMax (or since creation) and resets the mark to the current
// level. Periodic telemetry uses it so each window reports its own
// peak instead of the all-time one. A Set racing the reset can at
// worst attribute its peak to the next window; the mark never drops
// below the live level for long because the reset re-raises it.
func (g *Gauge) TakeMax() int64 {
	m := g.max.Swap(g.v.Load())
	g.raiseMax(g.v.Load())
	return m
}

// DurationCounter accumulates elapsed time atomically. The fan-out
// pipeline uses one per mirror link to expose cumulative stall time
// (wall clock spent blocked inside link submission).
type DurationCounter struct{ ns atomic.Int64 }

// Add accumulates d (negative values are ignored).
func (c *DurationCounter) Add(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}

// Value returns the accumulated duration.
func (c *DurationCounter) Value() time.Duration {
	return time.Duration(c.ns.Load())
}

// Histogram accumulates durations. Count, sum, min and max are always
// exact; percentiles come from retained raw samples, bounded by the
// configured cap. Past the cap, retention switches to uniform
// reservoir sampling (Vitter's Algorithm R), so percentiles stay
// unbiased over the whole run instead of describing only its head.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	// sorted marks samples as sorted; Record clears it and percentile
	// reads re-sort at most once per batch of mutations, instead of
	// copying and sorting the full slice on every call.
	sorted bool
	rng    uint64
	count  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
	cap    int
}

// DefaultHistogramCap bounds retained samples per histogram.
const DefaultHistogramCap = 1 << 18

// NewHistogram returns a histogram retaining up to capSamples raw
// samples (0 uses DefaultHistogramCap).
func NewHistogram(capSamples int) *Histogram {
	if capSamples <= 0 {
		capSamples = DefaultHistogramCap
	}
	return &Histogram{cap: capSamples, min: math.MaxInt64}
}

// Record adds one duration sample.
func (h *Histogram) Record(d time.Duration) {
	one := [1]time.Duration{d}
	h.RecordBatch(one[:])
}

// RecordBatch adds the samples of ds in order under one lock; the
// histogram ends up exactly as after a Record call per sample.
func (h *Histogram) RecordBatch(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	h.mu.Lock()
	for _, d := range ds {
		h.count++
		h.sum += d
		if d < h.min {
			h.min = d
		}
		if d > h.max {
			h.max = d
		}
		if len(h.samples) < h.cap {
			h.samples = append(h.samples, d)
			h.sorted = false
			continue
		}
		// Reservoir step: keep the new sample with probability
		// cap/count, evicting a uniformly random retained one.
		if h.rng == 0 {
			h.rng = 0x9e3779b97f4a7c15
		}
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		if j := h.rng % h.count; j < uint64(len(h.samples)) {
			h.samples[j] = d
			h.sorted = false
		}
	}
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average of all samples (0 when empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// sortLocked sorts the retained samples in place if a mutation dirtied
// them. Caller holds h.mu.
func (h *Histogram) sortLocked() {
	if h.sorted {
		return
	}
	sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
	h.sorted = true
}

// percentileLocked is the nearest-rank percentile over the (sorted)
// retained samples. Caller holds h.mu and has called sortLocked.
func (h *Histogram) percentileLocked(p float64) time.Duration {
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Percentile returns the p-th percentile (0 < p <= 100) over retained
// samples, 0 when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.percentileLocked(p)
}

// Quantiles returns the requested percentiles in one pass — a single
// lock acquisition and at most one sort (all zeros when empty).
func (h *Histogram) Quantiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return out
	}
	h.sortLocked()
	for i, p := range ps {
		out[i] = h.percentileLocked(p)
	}
	return out
}

// Summary formats count/mean/p50/p95/max on one line.
func (h *Histogram) Summary() string {
	h.mu.Lock()
	count, sum, max := h.count, h.sum, h.max
	var p50, p95 time.Duration
	if len(h.samples) > 0 {
		h.sortLocked()
		p50, p95 = h.percentileLocked(50), h.percentileLocked(95)
	}
	h.mu.Unlock()
	mean := time.Duration(0)
	if count > 0 {
		mean = sum / time.Duration(count)
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v max=%v", count, mean, p50, p95, max)
}

// Series bins (time, value) observations into fixed-width wall-clock
// bins relative to a start instant, averaging values per bin. Figure 9
// is a Series of update delays with 1-second bins.
type Series struct {
	mu    sync.Mutex
	start time.Time
	width time.Duration
	sums  []float64
	ns    []uint64
}

// NewSeries returns a series with the given bin width, starting at
// start.
func NewSeries(start time.Time, width time.Duration) *Series {
	if width <= 0 {
		width = time.Second
	}
	return &Series{start: start, width: width}
}

// Observe records value at instant at. Observations before start fall
// into bin 0.
func (s *Series) Observe(at time.Time, value float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bin := int(at.Sub(s.start) / s.width)
	if bin < 0 {
		bin = 0
	}
	for len(s.sums) <= bin {
		s.sums = append(s.sums, 0)
		s.ns = append(s.ns, 0)
	}
	s.sums[bin] += value
	s.ns[bin]++
}

// Bins returns the per-bin averages; empty bins are NaN.
func (s *Series) Bins() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.sums))
	for i := range out {
		if s.ns[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = s.sums[i] / float64(s.ns[i])
		}
	}
	return out
}

// Counts returns the number of observations per bin.
func (s *Series) Counts() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, len(s.ns))
	copy(out, s.ns)
	return out
}

// MaxBin returns the largest per-bin average, ignoring empty bins.
func (s *Series) MaxBin() float64 {
	var max float64
	for _, v := range s.Bins() {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	return max
}

// MeanOfBins returns the average over non-empty bins.
func (s *Series) MeanOfBins() float64 {
	var sum float64
	var n int
	for _, v := range s.Bins() {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
