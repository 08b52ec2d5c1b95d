package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// sorted; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of vals (mean of the two middle values when even); 0 when
// empty. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile is the highest percentile, capped at 99, that still
// has at least ten samples beyond it in a segment of n samples (the
// choosing-metrics rule); 50 when the segment is too small for any.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	if p > 99 {
		p = 99
	}
	if p < 50 {
		p = 50
	}
	return p
}

// segStat is one percentile reported the robust way: the median over
// segments of each segment's percentile, with the extreme segments
// and the total sample count beside it. A single host stall then
// moves one segment, not the reported value.
type segStat struct {
	Value    float64
	Min, Max float64 // extreme segments
	Lo, Hi   float64 // 10th and 90th percentile of the segments
	Drift    float64 // see drift
	Samples  int
	Segs     int
}

// driftBlocks is how many consecutive stretches a run is cut into to
// see whether it drifted.
const driftBlocks = 4

// drift tells a run that changed under way from one that merely has
// noisy segments: the segments, in time order, are cut into
// driftBlocks consecutive blocks, and the largest block median is
// divided by the smallest. 1 when there are too few segments.
func drift(per []float64) float64 {
	if len(per) < 2*driftBlocks {
		return 1
	}
	lo, hi := math.Inf(1), 0.0
	for b := 0; b < driftBlocks; b++ {
		m := median(per[b*len(per)/driftBlocks : (b+1)*len(per)/driftBlocks])
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	if lo <= 0 {
		return 1
	}
	return hi / lo
}

// overSegments summarises one value per segment, given in time order.
func overSegments(per []float64, samples int) segStat {
	out := segStat{Samples: samples, Segs: len(per), Drift: drift(per)}
	if len(per) == 0 {
		return out
	}
	sorted := append([]float64(nil), per...)
	sort.Float64s(sorted)
	out.Value = median(sorted)
	out.Min, out.Max = sorted[0], sorted[len(sorted)-1]
	out.Lo, out.Hi = percentile(sorted, 10), percentile(sorted, 90)
	return out
}

// segmented holds latency samples bucketed by the segment their due
// time fell in. One goroutine adds; readers wait for it to stop.
type segmented struct {
	segs [][]float64
}

func newSegmented(n int) *segmented { return &segmented{segs: make([][]float64, n)} }

// add records v in segment seg; samples outside the window are dropped.
func (s *segmented) add(seg int, v float64) {
	if seg >= 0 && seg < len(s.segs) {
		s.segs[seg] = append(s.segs[seg], v)
	}
}

func (s *segmented) count() int {
	n := 0
	for _, seg := range s.segs {
		n += len(seg)
	}
	return n
}

// stat reports percentile p (p <= 0 selects tailPercentile of the
// smallest non-empty segment) as the median over non-empty segments.
func (s *segmented) stat(p float64) segStat {
	if p <= 0 {
		smallest := 0
		for _, seg := range s.segs {
			if len(seg) > 0 && (smallest == 0 || len(seg) < smallest) {
				smallest = len(seg)
			}
		}
		p = tailPercentile(smallest)
	}
	var per []float64
	for _, seg := range s.segs {
		if len(seg) == 0 {
			continue
		}
		sorted := append([]float64(nil), seg...)
		sort.Float64s(sorted)
		per = append(per, percentile(sorted, p))
	}
	return overSegments(per, s.count())
}

// seriesStat reports one value per segment the same way.
func seriesStat(per []float64) segStat { return overSegments(per, len(per)) }

// littleEstimator turns sampled backlog lengths into a mean waiting
// time by Little's law: W = (time-integral of backlog) / completions.
// It needs no per-item timestamps, so an observer whose polling period
// is as long as the lag it measures still gives an unbiased mean.
type littleEstimator struct {
	area   float64 // item-seconds
	lastT  float64
	lastN  float64
	primed bool
}

// observe records backlog n at time t (seconds, non-decreasing); the
// backlog is integrated by the trapezoid rule between observations.
func (l *littleEstimator) observe(t, n float64) {
	if l.primed && t > l.lastT {
		l.area += (n + l.lastN) / 2 * (t - l.lastT)
	}
	l.lastT, l.lastN, l.primed = t, n, true
}

// meanWait is the mean time an item spent in the backlog, given how
// many items passed through while observing; 0 with none.
func (l *littleEstimator) meanWait(items float64) float64 {
	if items <= 0 {
		return 0
	}
	return l.area / items
}

// gauge accumulates a sampled level's mean and maximum.
type gauge struct {
	sum float64
	n   int
	max float64
}

func (g *gauge) observe(v float64) {
	g.sum += v
	g.n++
	if v > g.max {
		g.max = v
	}
}

func (g *gauge) mean() float64 {
	if g.n == 0 {
		return 0
	}
	return g.sum / float64(g.n)
}
