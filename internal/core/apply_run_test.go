package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/vclock"
)

// TestZeroModelDelayIsWallClock: with the cost model off, an event's
// completion instant is the wall clock, so its update delay is its real
// age. It used to be booked at the ledger's catch-up window in the
// past, which clamped every delay below 4 ms — DelayHist, the mirror
// apply stage and the ApplyLag adaptation input — to zero.
func TestZeroModelDelayIsWallClock(t *testing.T) {
	hist := new(metrics.Histogram)
	tracer := obs.NewTracer(nil)
	m := NewMainUnit(MainConfig{
		EDE:         ede.Config{CPU: &costmodel.CPU{}},
		DelayHist:   hist,
		Tracer:      tracer,
		TraceMirror: true,
	})
	defer m.Close()
	const n = 100
	start := time.Now()
	for i := 1; i <= n; i++ {
		e := event.NewPosition(event.FlightID(i%7+1), uint64(i), 1, 2, 3, 64)
		e.VT = vclock.VC{uint64(i)}
		e.Ingress = start.Add(-time.Millisecond).UnixNano()
		if err := m.Deliver(e); err != nil {
			t.Fatal(err)
		}
	}
	m.DrainEvents()
	ceiling := time.Since(start) + time.Millisecond
	if got := hist.Count(); got != n {
		t.Fatalf("DelayHist holds %d samples, want %d", got, n)
	}
	if min, max := hist.Percentile(0), hist.Max(); min < time.Millisecond || max > ceiling {
		t.Fatalf("delays span %v..%v, want within the events' real age %v..%v", min, max, time.Millisecond, ceiling)
	}
	if got := tracer.StageHist(obs.StageMirrorApply).Percentile(0); got < time.Millisecond {
		t.Fatalf("mirror_apply stage min = %v, want >= 1ms", got)
	}
	if got := m.ApplyLagMicros(); got < 900 {
		t.Fatalf("ApplyLagMicros = %d after %d events each 1ms old, want ~1000", got, n)
	}
}

// TestCheckpointsDueMatchesPerEventRule holds the run arithmetic to the
// rule it replaced: count one event at a time, post and reset whenever
// the count reaches the frequency in force for that run.
func TestCheckpointsDueMatchesPerEventRule(t *testing.T) {
	perEvent := func(since, n, freq uint64) (posts, carried uint64) {
		for ; n > 0; n-- {
			since++
			if since >= freq {
				since = 0
				posts++
			}
		}
		return posts, since
	}
	for _, tc := range []struct{ since, n, freq uint64 }{
		{0, 0, 50}, {0, 1, 50}, {0, 49, 50}, {0, 50, 50}, {0, 51, 50},
		{0, 256, 50}, {49, 1, 50}, {49, 256, 50}, {7, 1000, 50},
		{0, 64, 1}, {0, 64, 0}, {3, 64, 1},
		{120, 1, 50}, {120, 130, 50}, // frequency lowered below the carried count
		{10, 64, 1000}, {999, 1, 1000},
	} {
		wantPosts, wantCarried := perEvent(tc.since, tc.n, tc.freq)
		posts, carried := checkpointsDue(tc.since, tc.n, tc.freq)
		if posts != wantPosts || carried != wantCarried {
			t.Errorf("checkpointsDue(%d, %d, %d) = %d posts, %d carried; one event at a time gives %d, %d",
				tc.since, tc.n, tc.freq, posts, carried, wantPosts, wantCarried)
		}
	}
	// N events at frequency 50 post floor(N/50) times however the
	// stream is cut into runs, and a frequency change applies from the
	// next run on.
	rng := rand.New(rand.NewSource(3))
	var since, sinceRef, posts, postsRef uint64
	freq := uint64(50)
	for total := 0; total < 20000; {
		n := uint64(1 + rng.Intn(256))
		if total > 10000 {
			freq = 20
		}
		p, c := checkpointsDue(since, n, freq)
		posts, since = posts+p, c
		p, c = perEvent(sinceRef, n, freq)
		postsRef, sinceRef = postsRef+p, c
		total += int(n)
	}
	if posts != postsRef || since != sinceRef {
		t.Fatalf("random runs: %d posts, %d carried; one event at a time gives %d, %d", posts, since, postsRef, sinceRef)
	}
}

// outLog is a client update stream that records what it is sent, in
// order.
type outLog struct {
	mu  sync.Mutex
	got []string
}

func (o *outLog) Submit(e *event.Event) error {
	o.mu.Lock()
	o.got = append(o.got, fmt.Sprintf("%s/%d/%d/%d/%d", e.Type, e.Flight, e.Seq, e.Status, e.Coalesced))
	o.mu.Unlock()
	return nil
}

func (o *outLog) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.got)
}

// cut is what a Barrier function saw.
type cut struct {
	processed uint64
	emitted   int
	delays    uint64
	snapshot  []byte
}

// TestRunKeepsBarrierAndRecoveryPosition drives the same stream — with
// gate readers and at-gate transitions that derive events, a recovery
// snapshot, and a Barrier — through one main unit an event at a time
// and through another in full runs with the barrier and the snapshot
// landing mid-run. The barrier must see exactly the events delivered
// before it (state, client stream and histograms), and the client
// stream and final state must not differ.
func TestRunKeepsBarrierAndRecoveryPosition(t *testing.T) {
	const (
		n         = 3000
		barrierAt = 300  // inside the second run of 256
		recoverAt = 1100 // inside the fifth
	)
	donor := ede.New(ede.Config{})
	donor.Process(event.NewPosition(9001, 1, 5, 6, 7, 32))
	snapshot := donor.State().Snapshot()
	rng := rand.New(rand.NewSource(11))
	stream := make([]*event.Event, n)
	for i := range stream {
		f := event.FlightID(1 + rng.Intn(40))
		seq := uint64(i + 1)
		var e *event.Event
		switch r := rng.Intn(10); {
		case i == recoverAt:
			e = &event.Event{Type: event.TypeRecoveryState, Coalesced: 1, Payload: snapshot}
		case r < 6:
			e = event.NewPosition(f, seq, float64(i), float64(-i), 1000, 64)
		case r < 8:
			e = event.NewStatus(f, seq, event.StatusAtGate, 16)
		default:
			e = &event.Event{Type: event.TypeGateReader, Flight: f, Seq: seq, Coalesced: 1, Payload: []byte{2, 0, 0, 0}}
		}
		e.VT = vclock.VC{seq}
		e.Ingress = time.Now().UnixNano()
		stream[i] = e
	}

	type unit struct {
		m    *MainUnit
		out  *outLog
		hist *metrics.Histogram
	}
	newUnit := func() unit {
		u := unit{out: &outLog{}, hist: new(metrics.Histogram)}
		u.m = NewMainUnit(MainConfig{Out: u.out, DelayHist: u.hist, Tracer: obs.NewTracer(nil)})
		return u
	}
	takeCut := func(u unit, c *cut) func() {
		return func() {
			*c = cut{u.m.Processed(), u.out.len(), u.hist.Count(), u.m.Engine().State().Snapshot()}
		}
	}

	// Reference: every event is applied before the next is delivered,
	// so every run is a run of one.
	ref := newUnit()
	var refCut cut
	for i, e := range stream {
		if i == barrierAt {
			if err := ref.m.Barrier(takeCut(ref, &refCut)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.m.Deliver(e); err != nil {
			t.Fatal(err)
		}
		for ref.m.LastProcessed().Sum() < uint64(i+1) {
			runtime.Gosched()
		}
	}
	ref.m.Close()
	if refCut.emitted == 0 || refCut.emitted == ref.out.len() {
		t.Fatalf("reference barrier saw %d of %d emissions; the cut would be vacuous", refCut.emitted, ref.out.len())
	}

	// Runs: hold the processing goroutine inside a barrier while the
	// whole stream, with the second barrier's sentinel in place, queues
	// up behind it.
	run := newUnit()
	var runCut cut
	held, gate := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := run.m.Barrier(func() { close(held); <-gate }); err != nil {
			t.Error(err)
		}
	}()
	<-held
	if err := run.m.DeliverBatch(stream[:barrierAt]); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer wg.Done()
		if err := run.m.Barrier(takeCut(run, &runCut)); err != nil {
			t.Error(err)
		}
	}()
	for run.m.QueueLen() != barrierAt+1 {
		runtime.Gosched() // until the cut's sentinel is queued behind the first events
	}
	if err := run.m.DeliverBatch(stream[barrierAt:]); err != nil {
		t.Fatal(err)
	}
	close(gate)
	wg.Wait()
	run.m.Close()

	if runCut.processed != refCut.processed || runCut.emitted != refCut.emitted || runCut.delays != refCut.delays {
		t.Fatalf("mid-run barrier saw processed %d, emitted %d, delays %d; want %d, %d, %d",
			runCut.processed, runCut.emitted, runCut.delays, refCut.processed, refCut.emitted, refCut.delays)
	}
	if !bytes.Equal(runCut.snapshot, refCut.snapshot) {
		t.Fatal("mid-run barrier saw a different state than the one-event path")
	}
	if len(run.out.got) != len(ref.out.got) {
		t.Fatalf("client stream has %d updates in runs, %d one at a time", len(run.out.got), len(ref.out.got))
	}
	for i := range ref.out.got {
		if run.out.got[i] != ref.out.got[i] {
			t.Fatalf("client stream diverges at %d: %s in runs, %s one at a time", i, run.out.got[i], ref.out.got[i])
		}
	}
	if !bytes.Equal(run.m.Engine().State().Snapshot(), ref.m.Engine().State().Snapshot()) {
		t.Fatal("final state differs between runs and the one-event path")
	}
	if got, want := run.m.EmittedUpdates(), ref.m.EmittedUpdates(); got != want {
		t.Fatalf("EmittedUpdates = %d in runs, %d one at a time", got, want)
	}
	if got, want := run.hist.Count(), ref.hist.Count(); got != want {
		t.Fatalf("DelayHist holds %d samples in runs, %d one at a time", got, want)
	}
}

// TestRunApplySurvivesSlabRecycling races checkpoint commits against
// runs that borrow slab-owned views: a committer trims the backup queue
// to the EDE's progress — which advances per event, so mid-run — and
// the feeder's next wire decode reuses the slabs that frees. The main
// unit reads an event's scalars (here its Ingress, for the delay
// histogram and the mirror-apply stage) after applying it, so under
// -race this fails if those reads reach the view instead of the copy
// taken before the run.
func TestRunApplySurvivesSlabRecycling(t *testing.T) {
	const (
		perBatch = 64
		batches  = 300
	)
	hist := new(metrics.Histogram)
	tracer := obs.NewTracer(nil)
	site := NewMirrorSite(MirrorSiteConfig{Tracer: tracer, Main: MainConfig{DelayHist: hist}})
	defer site.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			site.Backup().Commit(site.Main().LastProcessed())
			runtime.Gosched()
		}
	}()

	var wire loopback
	w := event.NewWriter(&wire)
	r := event.NewReader(&wire)
	hitsBefore, _, _ := event.SlabPoolStats()
	src := make([]*event.Event, perBatch)
	seq := uint64(0)
	for b := 0; b < batches; b++ {
		now := time.Now().UnixNano()
		for i := range src {
			seq++
			e := event.NewPosition(event.FlightID(seq%31+1), seq, 1, 2, 3, 96)
			e.VT = vclock.VC{seq}
			e.Ingress = now
			src[i] = e
		}
		if err := w.WriteBatchFrame(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		_, views, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := site.HandleOwnedBatch(views.Events, views); err != nil {
			t.Fatal(err)
		}
		views.Release()
	}
	site.Drain()
	close(stop)
	wg.Wait()

	if got := site.Processed(); got != seq {
		t.Fatalf("processed %d events, want %d", got, seq)
	}
	if got := hist.Count(); got != seq {
		t.Fatalf("DelayHist holds %d samples, want %d", got, seq)
	}
	if got := tracer.StageHist(obs.StageMirrorApply).Count(); got != seq {
		t.Fatalf("mirror_apply stage holds %d samples, want %d", got, seq)
	}
	if hitsAfter, _, _ := event.SlabPoolStats(); hitsAfter == hitsBefore {
		t.Fatal("no slab was recycled while the stream ran; the race was not exercised")
	}
}

// countOut is a client update stream that counts, and signals when the
// count reaches the target set before the run was delivered.
type countOut struct {
	n, target uint64
	reached   chan struct{}
}

func (c *countOut) Submit(*event.Event) error {
	if c.n++; c.n == c.target {
		c.reached <- struct{}{}
	}
	return nil
}

// BenchmarkApplyPath measures the layer between a forwarding task and
// the client stream — DeliverBatch, the main-unit queue hop, the EDE,
// the delay histogram and the central-path stages, Out — per event at
// a given run length, with the cost model off as on the wall-clock
// runtime. Each run is delivered whole and applied before the next, so
// run=1 is the pipeline at a trickle (a queue hop and a flush per
// event) and run=256 the saturated one.
func BenchmarkApplyPath(b *testing.B) {
	for _, run := range []int{1, 8, 256} {
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			out := &countOut{reached: make(chan struct{})}
			m := NewMainUnit(MainConfig{
				EDE:       ede.Config{CPU: &costmodel.CPU{}},
				Out:       out,
				DelayHist: new(metrics.Histogram),
				Tracer:    obs.NewTracer(nil),
			})
			defer m.Close()
			events := make([]*event.Event, 4096)
			now := time.Now().UnixNano()
			for i := range events {
				e := event.NewPosition(event.FlightID(i%500+1), uint64(i+1), 1, 2, 3, 256)
				e.VT = vclock.VC{uint64(i + 1)}
				e.Ingress, e.ReadyAt, e.ForwardAt = now, now, now
				events[i] = e
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				at := done % len(events)
				n := min(run, b.N-done, len(events)-at)
				done += n
				// The queue's lock orders this write before the main
				// unit's reads of it.
				out.target = uint64(done)
				if err := m.DeliverBatch(events[at : at+n]); err != nil {
					b.Fatal(err)
				}
				<-out.reached
			}
		})
	}
}
