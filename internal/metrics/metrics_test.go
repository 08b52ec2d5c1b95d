package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
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
	h := new(Histogram)
	if h.Mean() != 0 || h.Max() != 0 || h.Percentile(0) != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("Mean = %v, want 50.5ms", got)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {95, 95 * time.Millisecond}} {
		if got := h.Percentile(c.p); !withinBucket(got, c.want) {
			t.Fatalf("p%v = %v, want %v within 1/64", c.p, got, c.want)
		}
	}
	// The extremes are exact, not bucket midpoints.
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := h.Percentile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v, want 1ms", got)
	}
}

// withinBucket reports whether got is within the bucket error (1/64 of
// want) of want.
func withinBucket(got, want time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d*64 <= want
}

func TestHistogramSummary(t *testing.T) {
	h := new(Histogram)
	h.Record(time.Millisecond)
	s := h.Summary()
	for _, want := range []string{"n=1", "mean=", "p50=", "p95=", "max="} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary %q missing %q", s, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := new(Histogram)
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

func TestSeriesDefaultWidth(t *testing.T) {
	s := NewSeries(time.Now(), 0)
	if s.width != time.Second {
		t.Fatalf("default width = %v, want 1s", s.width)
	}
}

func TestSeriesEmptyAggregates(t *testing.T) {
	s := NewSeries(time.Now(), time.Second)
	if bins := s.Bins(); len(bins) != 0 {
		t.Fatalf("empty series Bins = %v, want none", bins)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := new(Histogram)
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}

// BenchmarkHistogramRecordBatchShared is two goroutines recording
// 64-sample batches into one histogram, as two mirrors' main units do
// into the shared mirror_apply stage. One op is one batch.
func BenchmarkHistogramRecordBatchShared(b *testing.B) {
	h := new(Histogram)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		batch := make([]time.Duration, 64)
		for i := range batch {
			batch[i] = time.Duration(g*1000+i*37) * time.Microsecond
		}
		n := b.N / 2
		if g == 0 {
			n = b.N - n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				h.RecordBatch(batch)
			}
		}()
	}
	wg.Wait()
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

func TestHistogramQuantilesSinglePass(t *testing.T) {
	h := new(Histogram)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	qs := h.Quantiles(50, 90, 99)
	want := []time.Duration{50 * time.Millisecond, 90 * time.Millisecond, 99 * time.Millisecond}
	for i := range qs {
		if qs[i] != h.Percentile([]float64{50, 90, 99}[i]) || !withinBucket(qs[i], want[i]) {
			t.Fatalf("Quantiles[%d] = %v, want %v within 1/64", i, qs[i], want[i])
		}
	}
	if got := new(Histogram).Quantiles(50, 95); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty histogram Quantiles = %v, want zeros", got)
	}
}

func TestHistogramDirtySortInterleaved(t *testing.T) {
	// Percentile reads interleaved with writes must each see every
	// sample recorded before them.
	h := new(Histogram)
	h.Record(30 * time.Millisecond)
	h.Record(10 * time.Millisecond)
	if got := h.Percentile(100); got != 30*time.Millisecond {
		t.Fatalf("p100 = %v, want 30ms", got)
	}
	h.Record(20 * time.Millisecond)
	if got := h.Percentile(50); !withinBucket(got, 20*time.Millisecond) {
		t.Fatalf("p50 after new sample = %v, want 20ms within 1/64", got)
	}
	h.Record(5 * time.Millisecond)
	if got := h.Percentile(0); got != 5*time.Millisecond {
		t.Fatalf("p0 = %v, want 5ms", got)
	}
}

// TestHistogramConcurrentReadWrite records one sample at a time and in
// batches while readers take quantiles and cumulative counts; every
// snapshot must be self-consistent (2^20 covers every sample, so its
// count equals the total read with it).
func TestHistogramConcurrentReadWrite(t *testing.T) {
	h := new(Histogram)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			batch := make([]time.Duration, 8)
			for i := 0; i < 2000; i++ {
				d := time.Duration(seed*1000+i) * time.Nanosecond
				if seed%2 == 0 {
					h.Record(d)
					continue
				}
				for j := range batch {
					batch[j] = d
				}
				h.RecordBatch(batch[:1+i%8])
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
				if le, count, _ := h.PowerOfTwoCounts(); le[20] != count {
					t.Errorf("le=2^20 counts %d, total %d: one snapshot must agree with itself", le[20], count)
					return
				}
			}
		}()
	}
	wg.Wait()
	if want := uint64(2*2000 + 2*(2000/8)*36); h.Count() != want {
		t.Fatalf("Count = %d, want %d", h.Count(), want)
	}
}

// TestHistogramRecordBatchMatchesRecord: a batch leaves the histogram
// exactly as one Record per sample would — count, sum, extremes and
// every bucket.
func TestHistogramRecordBatchMatchesRecord(t *testing.T) {
	var one, batched Histogram
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
	if one.s != batched.s {
		t.Fatalf("batched count/sum/min/max = %d/%v/%v/%v, want %d/%v/%v/%v, or the buckets differ",
			batched.s.count, batched.s.sum, batched.s.min, batched.s.max,
			one.s.count, one.s.sum, one.s.min, one.s.max)
	}
}

// TestHistogramBucketLayout checks the bucket arithmetic over the
// int64 range: every value lies in its bucket's [lo, hi], buckets are
// contiguous and ascending, none is wider than 1/32 of its lower edge,
// powers of two are upper edges, and the whole value fits in 16 KiB.
func TestHistogramBucketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Histogram{}); size > 16<<10 {
		t.Fatalf("Histogram is %d bytes, want <= 16 KiB", size)
	}
	prevHi := uint64(0)
	for i := 1; i < numBuckets; i++ {
		lo, hi := bucketEdges(i)
		if lo != prevHi+1 || hi < lo {
			t.Fatalf("bucket %d = [%d, %d] after upper edge %d: not contiguous", i, lo, hi, prevHi)
		}
		if (hi-lo)*32 > lo {
			t.Fatalf("bucket %d = [%d, %d] is wider than 1/32 of its lower edge", i, lo, hi)
		}
		for _, v := range []uint64{lo, lo + (hi-lo)/2, hi} {
			if v <= math.MaxInt64 && bucketOf(time.Duration(v)) != i {
				t.Fatalf("bucketOf(%d) = %d, want %d", v, bucketOf(time.Duration(v)), i)
			}
		}
		prevHi = hi
	}
	if prevHi < math.MaxInt64 {
		t.Fatalf("last bucket ends at %d, short of MaxInt64", prevHi)
	}
	if bucketOf(0) != 0 || bucketOf(-5) != 0 || bucketOf(math.MinInt64) != 0 {
		t.Fatal("values <= 0 belong in bucket 0")
	}
	for k := 0; k < 63; k++ {
		if _, hi := bucketEdges(bucketOf(1 << k)); hi != 1<<k {
			t.Fatalf("2^%d is not a bucket upper edge (bucket ends at %d)", k, hi)
		}
	}
}

// exactRank is the nearest-rank percentile of sorted samples, the
// reference the bucketed quantiles are checked against.
func exactRank(sorted []time.Duration, p float64) time.Duration {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(idx, 0)]
}

// TestHistogramQuantileAccuracy compares bucketed quantiles with an
// exact nearest-rank sort over several shapes: each within 1/64 of the
// exact value (half the widest bucket), p0 and p100 exactly the min and
// max.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	inputs := map[string]func(i int) time.Duration{
		"uniform":     func(int) time.Duration { return time.Duration(rng.Int63n(int64(10 * time.Millisecond))) },
		"exponential": func(int) time.Duration { return time.Duration(rng.ExpFloat64() * float64(200*time.Microsecond)) },
		"bimodal": func(i int) time.Duration {
			if i%10 == 0 {
				return 40*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
			}
			return 300*time.Microsecond + time.Duration(rng.Int63n(int64(50*time.Microsecond)))
		},
		"constant":     func(int) time.Duration { return 1234567 },
		"power-of-two": func(int) time.Duration { return 1 << (rng.Intn(30) + 1) },
	}
	ps := []float64{50, 90, 95, 99, 99.9}
	for name, gen := range inputs {
		var h Histogram
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = gen(i)
			h.Record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		got := h.Quantiles(append([]float64{0, 100}, ps...)...)
		if got[0] != samples[0] || got[1] != samples[n-1] {
			t.Errorf("%s: p0/p100 = %v/%v, want exact %v/%v", name, got[0], got[1], samples[0], samples[n-1])
		}
		for i, p := range ps {
			if want := exactRank(samples, p); !withinBucket(got[i+2], want) {
				t.Errorf("%s: p%v = %v, exact %v: off by more than 1/64", name, p, got[i+2], want)
			}
		}
	}
}

// TestHistogramPowerOfTwoCountsExact: the count at each power of two
// is exactly the number of samples <= it, for samples on and just
// beside every bound up to 2^56 (so the sum cannot overflow).
func TestHistogramPowerOfTwoCountsExact(t *testing.T) {
	var h Histogram
	var samples []time.Duration
	for k := 0; k <= 56; k++ {
		b := time.Duration(1) << k
		samples = append(samples, b-1, b, b, b+1)
	}
	h.RecordBatch(samples)
	le, count, sum := h.PowerOfTwoCounts()
	var wantSum time.Duration
	for _, s := range samples {
		wantSum += s
	}
	if count != uint64(len(samples)) || sum != wantSum {
		t.Fatalf("count/sum = %d/%v, want %d/%v", count, sum, len(samples), wantSum)
	}
	for k := range le {
		want := uint64(0)
		for _, s := range samples {
			if s <= 1<<k {
				want++
			}
		}
		if le[k] != want {
			t.Fatalf("le=2^%d counts %d, want %d", k, le[k], want)
		}
	}
}

// TestHistogramRecordZeroAllocs: recording is allocation-free.
func TestHistogramRecordZeroAllocs(t *testing.T) {
	var h Histogram
	batch := []time.Duration{1, 300, 70000, 5 * time.Millisecond}
	if n := testing.AllocsPerRun(100, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Record allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.RecordBatch(batch) }); n != 0 {
		t.Fatalf("RecordBatch allocates %v times, want 0", n)
	}
}
