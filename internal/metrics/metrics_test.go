package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond {
		t.Fatalf("Min = %v", h.Min())
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("Mean = %v, want 50.5ms", got)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := h.Percentile(95); got != 95*time.Millisecond {
		t.Fatalf("p95 = %v, want 95ms", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := h.Percentile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v, want 1ms", got)
	}
}

func TestHistogramCapRetention(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i))
	}
	// Count and extremes stay exact even past the retention cap.
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 99 {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram(0)
	h.Record(time.Millisecond)
	s := h.Summary()
	for _, want := range []string{"n=1", "mean=", "p50=", "p95=", "max="} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary %q missing %q", s, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Fatalf("Count = %d, want 2000", h.Count())
	}
}

func TestSeriesBinning(t *testing.T) {
	start := time.Unix(1000, 0)
	s := NewSeries(start, time.Second)
	s.Observe(start.Add(100*time.Millisecond), 10)
	s.Observe(start.Add(900*time.Millisecond), 20)
	s.Observe(start.Add(2500*time.Millisecond), 5)
	bins := s.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %v, want 3 bins", bins)
	}
	if bins[0] != 15 {
		t.Fatalf("bin0 = %v, want 15", bins[0])
	}
	if !math.IsNaN(bins[1]) {
		t.Fatalf("bin1 = %v, want NaN (empty)", bins[1])
	}
	if bins[2] != 5 {
		t.Fatalf("bin2 = %v, want 5", bins[2])
	}
	counts := s.Counts()
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
}

func TestSeriesEarlyObservationsClampToBinZero(t *testing.T) {
	start := time.Unix(1000, 0)
	s := NewSeries(start, time.Second)
	s.Observe(start.Add(-5*time.Second), 42)
	bins := s.Bins()
	if len(bins) != 1 || bins[0] != 42 {
		t.Fatalf("bins = %v", bins)
	}
}

func TestSeriesAggregates(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewSeries(start, time.Second)
	s.Observe(start.Add(500*time.Millisecond), 10)
	s.Observe(start.Add(1500*time.Millisecond), 30)
	s.Observe(start.Add(3500*time.Millisecond), 20)
	if got := s.MaxBin(); got != 30 {
		t.Fatalf("MaxBin = %v, want 30", got)
	}
	if got := s.MeanOfBins(); got != 20 {
		t.Fatalf("MeanOfBins = %v, want 20", got)
	}
}

func TestSeriesDefaultWidth(t *testing.T) {
	s := NewSeries(time.Now(), 0)
	if s.width != time.Second {
		t.Fatalf("default width = %v, want 1s", s.width)
	}
}

func TestSeriesEmptyAggregates(t *testing.T) {
	s := NewSeries(time.Now(), time.Second)
	if s.MaxBin() != 0 || s.MeanOfBins() != 0 {
		t.Fatal("empty series aggregates must be 0")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram(0)
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}

func BenchmarkSeriesObserve(b *testing.B) {
	s := NewSeries(time.Now(), time.Millisecond)
	at := time.Now()
	for i := 0; i < b.N; i++ {
		s.Observe(at, float64(i))
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("zero gauge must report zeros")
	}
	g.Set(5)
	g.Set(12)
	g.Set(3)
	if g.Value() != 3 {
		t.Fatalf("Value = %d, want 3", g.Value())
	}
	if g.Max() != 12 {
		t.Fatalf("Max = %d, want 12", g.Max())
	}
	g.Add(4)
	if g.Value() != 7 {
		t.Fatalf("Value after Add = %d, want 7", g.Value())
	}
	if g.Max() != 12 {
		t.Fatalf("Max after Add = %d, want 12", g.Max())
	}
	g.Add(10)
	if g.Max() != 17 {
		t.Fatalf("Max = %d, want 17", g.Max())
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("Value = %d, want 0", g.Value())
	}
	if g.Max() < 1 || g.Max() > 8 {
		t.Fatalf("Max = %d, want within [1, 8]", g.Max())
	}
}

// TestGaugeTakeMax pins the windowed high-water contract: TakeMax
// returns the mark accumulated since the previous take and restarts
// the window at the current value, so a later burst is visible in its
// own window and a calm window reports only the standing depth.
func TestGaugeTakeMax(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Set(9)
	g.Set(2)
	if got := g.TakeMax(); got != 9 {
		t.Fatalf("first TakeMax = %d, want 9", got)
	}
	// The new window starts at the current value, not zero.
	if got := g.TakeMax(); got != 2 {
		t.Fatalf("calm-window TakeMax = %d, want standing value 2", got)
	}
	g.Set(5)
	if got := g.TakeMax(); got != 5 {
		t.Fatalf("burst-window TakeMax = %d, want 5", got)
	}
	// After a take, Max reports the new window's mark.
	if got := g.Max(); got != 5 {
		t.Fatalf("Max after TakeMax = %d, want windowed 5", got)
	}
}

func TestDurationCounter(t *testing.T) {
	var d DurationCounter
	d.Add(3 * time.Millisecond)
	d.Add(2 * time.Millisecond)
	d.Add(0)
	d.Add(-time.Second) // ignored
	if d.Value() != 5*time.Millisecond {
		t.Fatalf("Value = %v, want 5ms", d.Value())
	}
}

func TestHistogramReservoirSampling(t *testing.T) {
	h := NewHistogram(100)
	n := 100_000
	for i := 0; i < n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != uint64(n) {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	// Exact aggregates survive sampling.
	if want := time.Duration(n-1) * time.Microsecond; h.Max() != want {
		t.Fatalf("Max = %v, want %v", h.Max(), want)
	}
	if h.Min() != 0 {
		t.Fatalf("Min = %v, want 0", h.Min())
	}
	if want := time.Duration(n) * time.Duration(n-1) / 2 * time.Microsecond; h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
	// A uniform ramp sampled uniformly keeps the median near the middle;
	// without reservoir eviction the retained samples would all be from
	// the first 100 recordings and p50 would be ~50µs.
	p50 := h.Percentile(50)
	mid := time.Duration(n/2) * time.Microsecond
	if p50 < mid/4 || p50 > mid*7/4 {
		t.Fatalf("p50 = %v, want near %v (reservoir not uniform)", p50, mid)
	}
	if p100 := h.Percentile(100); p100 < mid {
		t.Fatalf("p100 over retained samples = %v, want tail coverage past %v", p100, mid)
	}
}

func TestHistogramQuantilesSinglePass(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	qs := h.Quantiles(50, 90, 99)
	want := []time.Duration{50 * time.Millisecond, 90 * time.Millisecond, 99 * time.Millisecond}
	for i := range qs {
		if qs[i] != want[i] {
			t.Fatalf("Quantiles[%d] = %v, want %v", i, qs[i], want[i])
		}
	}
	if got := NewHistogram(0).Quantiles(50, 95); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty histogram Quantiles = %v, want zeros", got)
	}
}

func TestHistogramDirtySortInterleaved(t *testing.T) {
	// Percentile reads interleaved with writes must stay correct: each
	// read sorts at most once, and a following Record dirties the order
	// again.
	h := NewHistogram(0)
	h.Record(30 * time.Millisecond)
	h.Record(10 * time.Millisecond)
	if got := h.Percentile(100); got != 30*time.Millisecond {
		t.Fatalf("p100 = %v, want 30ms", got)
	}
	h.Record(20 * time.Millisecond)
	if got := h.Percentile(50); got != 20*time.Millisecond {
		t.Fatalf("p50 after new sample = %v, want 20ms", got)
	}
	h.Record(5 * time.Millisecond)
	if got := h.Percentile(0); got != 5*time.Millisecond {
		t.Fatalf("p0 = %v, want 5ms", got)
	}
}

func TestHistogramConcurrentReadWrite(t *testing.T) {
	h := NewHistogram(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Record(time.Duration(seed*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Percentile(95)
				h.Quantiles(50, 90, 99)
				h.Summary()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

// TestHistogramRecordBatchMatchesRecord: a batch leaves the histogram
// exactly as one Record per sample would — count, sum, min, max and,
// past the cap, the same reservoir (the sampler draws once per sample
// either way).
func TestHistogramRecordBatchMatchesRecord(t *testing.T) {
	const capSamples = 64
	one, batched := NewHistogram(capSamples), NewHistogram(capSamples)
	samples := make([]time.Duration, 1000)
	x := uint64(12345)
	for i := range samples {
		x = x*6364136223846793005 + 1442695040888963407
		samples[i] = time.Duration(x>>40) - time.Duration(1<<22) // some negative
	}
	for _, d := range samples {
		one.Record(d)
	}
	batched.RecordBatch(nil)
	for at, n := 0, 1; at < len(samples); at, n = at+n, n*2+1 {
		end := at + n
		if end > len(samples) {
			end = len(samples)
		}
		batched.RecordBatch(samples[at:end])
	}
	if one.Count() != batched.Count() || one.Sum() != batched.Sum() ||
		one.Min() != batched.Min() || one.Max() != batched.Max() {
		t.Fatalf("batched count/sum/min/max = %d/%v/%v/%v, want %d/%v/%v/%v",
			batched.Count(), batched.Sum(), batched.Min(), batched.Max(),
			one.Count(), one.Sum(), one.Min(), one.Max())
	}
	ps := []float64{0, 1, 25, 50, 75, 90, 99, 100}
	got, want := batched.Quantiles(ps...), one.Quantiles(ps...)
	for i := range ps {
		if got[i] != want[i] {
			t.Fatalf("p%v = %v batched, %v one at a time: the reservoirs differ", ps[i], got[i], want[i])
		}
	}
	if len(batched.samples) != capSamples {
		t.Fatalf("batched reservoir holds %d samples, want the cap %d", len(batched.samples), capSamples)
	}
	for i := range one.samples {
		if one.samples[i] != batched.samples[i] {
			t.Fatalf("reservoir slot %d = %v batched, %v one at a time", i, batched.samples[i], one.samples[i])
		}
	}
}
