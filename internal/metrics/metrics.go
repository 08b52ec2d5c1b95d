// Package metrics holds the storage types behind internal/obs, which
// declares, creates and exports them: counters, gauges, cumulative
// durations, bucketed histograms with percentiles, and time-binned
// series (Figure 9 plots update delay against wall time). It imports
// nothing from the repo.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
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

// Histogram accumulates durations (or dimensionless values recorded
// as time.Duration(n)) in fixed log-linear buckets: every value up to
// 64 has its own bucket, and above that each power of two splits into
// 32 buckets, so a bucket is at most 1/32 of its lower edge wide across
// the int64 range. Count, sum, mean and max are exact; percentiles are
// nearest rank over the buckets, within 1/64 of the exact sample. The
// zero value is ready to use.
type Histogram struct {
	mu sync.Mutex
	s  histState
}

// histState is a histogram's data. Readers that walk the buckets copy
// it under the lock and walk the copy, so a quantile read holds up
// Record only for the copy.
type histState struct {
	count         uint64
	sum, min, max time.Duration
	buckets       [numBuckets]uint64
}

// Bucket 0 holds every value <= 0; bucket i > 0 holds the values
// bucketEdges(i) spans. Indexing v-1 rather than v puts each power of
// two on a bucket's upper edge, so a cumulative count up to a power of
// two is exact.
const (
	subBits    = 5 // 2^subBits buckets per power of two
	numBuckets = (64-subBits)<<subBits + 1
)

// bucketOf is the bucket index of v: bits.Len64 plus a shift.
func bucketOf(v time.Duration) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v - 1)
	if u < 2<<subBits {
		return int(u) + 1
	}
	e := bits.Len64(u) // u's leading bit is bit e-1
	return (e-subBits)<<subBits | int(u>>(e-subBits-1))&(1<<subBits-1) + 1
}

// bucketEdges returns bucket i's value range [lo, hi] (i > 0).
func bucketEdges(i int) (lo, hi uint64) {
	j := uint64(i - 1)
	if j < 2<<subBits {
		return j + 1, j + 1
	}
	shift := j>>subBits - 1
	sub := j&(1<<subBits-1) | 1<<subBits
	return sub<<shift + 1, (sub + 1) << shift
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	one := [1]time.Duration{d}
	h.RecordBatch(one[:])
}

// RecordBatch adds the samples of ds under one lock; the histogram ends
// up exactly as after a Record call per sample.
func (h *Histogram) RecordBatch(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	lo, hi := ds[0], ds[0]
	var sum time.Duration
	for _, d := range ds {
		lo, hi, sum = min(lo, d), max(hi, d), sum+d
	}
	h.mu.Lock()
	s := &h.s
	for _, d := range ds {
		s.buckets[bucketOf(d)]++
	}
	if s.count == 0 {
		s.min, s.max = lo, hi
	}
	s.min, s.max = min(s.min, lo), max(s.max, hi)
	s.count += uint64(len(ds))
	s.sum += sum
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.count
}

// Mean returns the average of all samples (0 when empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.mean()
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.max
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.sum
}

func (h *Histogram) snapshot() histState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s
}

func (s *histState) mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.sum / time.Duration(s.count)
}

// percentile is the nearest-rank p-th percentile: the midpoint of the
// bucket holding the rank, clamped to [min, max]; p <= 0 and p >= 100
// are the exact min and max.
func (s *histState) percentile(p float64) time.Duration {
	switch {
	case s.count == 0:
		return 0
	case p <= 0:
		return s.min
	case p >= 100:
		return s.max
	}
	rank := max(uint64(math.Ceil(p/100*float64(s.count))), 1)
	i, seen := 0, s.buckets[0]
	for seen < rank {
		i++
		seen += s.buckets[i]
	}
	mid := time.Duration(0)
	if i > 0 {
		lo, hi := bucketEdges(i)
		mid = time.Duration(lo + (hi-lo)/2)
	}
	return min(max(mid, s.min), s.max)
}

// Percentile returns the p-th percentile (see Quantiles), 0 when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	return h.Quantiles(p)[0]
}

// Quantiles returns the requested percentiles from one snapshot: each
// the nearest-rank sample's bucket midpoint, clamped to the exact
// [min, max], with p <= 0 and p >= 100 the exact min and max (all zeros
// when empty).
func (h *Histogram) Quantiles(ps ...float64) []time.Duration {
	s := h.snapshot()
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = s.percentile(p)
	}
	return out
}

// PowerOfTwoCounts returns, from one snapshot, how many samples are
// <= 2^k for each k < 63 — exact, as every power of two is a bucket's
// upper edge — plus the total count and sum.
func (h *Histogram) PowerOfTwoCounts() (le [63]uint64, count uint64, sum time.Duration) {
	s := h.snapshot()
	seen, k := s.buckets[0], 0
	for i := 1; k < len(le); i++ {
		seen += s.buckets[i]
		if _, hi := bucketEdges(i); hi == 1<<k {
			le[k] = seen
			k++
		}
	}
	return le, s.count, s.sum
}

// Summary formats count/mean/p50/p95/max on one line.
func (h *Histogram) Summary() string {
	s := h.snapshot()
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v max=%v", s.count, s.mean(), s.percentile(50), s.percentile(95), s.max)
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
