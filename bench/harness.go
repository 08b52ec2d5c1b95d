package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/cluster"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
)

const (
	// sampleEvery: every 4th event carries a latency sample.
	sampleEvery = 4
	// ringSize bounds the samples in flight between the feeder and
	// its two observers (a quarter of a million events of backlog).
	ringSize = 1 << 16
	// spanTickStride: in a traced run, spans are recorded for one
	// sampled event of every 7th tick, which keeps the trace file at a
	// few MB whatever the event rate. Seven ms shares no factor with the
	// kernel's timer tick (1, 4 or 10 ms): with every 4th tick on a
	// 250 Hz kernel the traced ticks all met the tick interrupt at the
	// same phase and their spans read 13 % slower than the run.
	spanTickStride = 7
	// quiesceTimeout bounds every wait for the pipeline to catch up;
	// passing it fails the run instead of hanging the benchmark.
	quiesceTimeout = 30 * time.Second
)

// sample is a sampled event on its way through the system.
type sample struct {
	ord    uint64 // the event's ordinal: its position in the ingest order
	due    int64  // ns since harness start
	traced bool   // record spans for it
}

// window is the measured interval, cut into equal segments.
type window struct {
	start, end int64 // ns since harness start
	segLen     int64
	nseg       int
}

// seg is the segment an instant falls in; -1 outside the window.
func (w *window) seg(t int64) int {
	if w == nil || t < w.start || t >= w.end {
		return -1
	}
	return int((t - w.start) / w.segLen)
}

// harness is one assembled cluster together with everything the
// benchmark uses to load and observe it from outside.
type harness struct {
	sp  spec
	cl  *cluster.Cluster
	gen *generator
	mem *core.Membership // rejoin_cycle only

	fronts []*httpfront.Front
	urls   []string

	t0   time.Time
	ring []sample
	sl   *sleeper // the feeding goroutine's

	ingested  atomic.Uint64 // ordinal of the last event handed to Ingest
	published atomic.Uint64 // samples written to ring
	watchCur  atomic.Uint64 // samples the watcher is done with
	win       atomic.Pointer[window]

	sink *sink

	// lagMirrors are the mirrors whose progress defines "applied on
	// every mirror" (all of them, except the one rejoin_cycle keeps
	// excluding).
	lagMirrors []int

	tr      *tracer
	feedBuf *spanBuf

	// wireBatch[i] is the series mirror i's link sender records into:
	// one value per wire submission, the batch's event count.
	wireBatch []*metrics.Histogram

	overflow uint64 // samples skipped because the ring was full (feeder only)
}

// now is the harness clock: monotonic ns since assembly.
func (h *harness) now() int64 { return time.Since(h.t0).Nanoseconds() }

// sink is the central site's client update stream (Config.ClientOut).
// It runs on the central main unit's goroutine, so it only counts,
// checks order, and stamps the sampled events.
type sink struct {
	h       *harness
	emitted atomic.Uint64
	lastSeq [2]uint64
	delay   *segmented // installed with the window
	buf     *spanBuf

	outOfOrder uint64 // updates whose (stream, seq) did not follow on
	unmatched  uint64 // sampled updates with no matching send stamp
	derived    uint64
}

func (s *sink) Submit(e *event.Event) error {
	if e.Type != event.TypeStateUpdate {
		s.derived++
		return nil
	}
	n := s.emitted.Load() + 1
	if int(e.Stream) >= len(s.lastSeq) || e.Seq != s.lastSeq[e.Stream]+1 {
		s.outOfOrder++
	} else {
		s.lastSeq[e.Stream] = e.Seq
	}
	if n%sampleEvery == 0 {
		ent := s.h.ring[(n/sampleEvery)&(ringSize-1)]
		if ent.ord != n {
			s.unmatched++
		} else if w := s.h.win.Load(); w != nil {
			now := s.h.now()
			s.delay.add(w.seg(ent.due), float64(now-ent.due)/1e6)
			if ent.traced {
				s.buf.record("emit", "ingest_burst", n, ent.due, now)
			}
		}
	}
	s.emitted.Store(n)
	return nil
}

// assemble builds the cluster a workload runs against: loopback TCP,
// two mirrors, the cost model off, so every number is wall-clock time
// of the real pipeline.
func assemble(sp spec, seed int64, tr *tracer) (*harness, error) {
	h := &harness{
		sp:   sp,
		gen:  newGenerator(seed, sp.flights, sp.posSize, sp.statusSize),
		t0:   time.Now(),
		ring: make([]sample, ringSize),
		sl:   newSleeper(),
		tr:   tr,
	}
	h.sink = &sink{h: h, buf: tr.buf()}
	h.feedBuf = tr.buf()
	cl, err := cluster.New(cluster.Config{
		Mirrors:      2,
		Transport:    cluster.TransportTCP,
		Model:        costmodel.Model{},
		Params:       core.Params{CheckpointFreq: 50},
		StatePadding: sp.padding,
		ClientOut:    h.sink,
		DeltaHorizon: sp.deltaHorizon,
	})
	if err != nil {
		return nil, fmt.Errorf("assembling cluster: %w", err)
	}
	h.cl = cl
	for i := range cl.Mirrors {
		h.wireBatch = append(h.wireBatch, cl.Obs.ValueHistogram("wire_batch_events", obs.L("mirror", fmt.Sprint(i))))
	}
	if sp.selective {
		// The paper's selective configuration.
		cl.Central.InstallSelective(10)
		cl.Central.SetComplexSeq(event.TypeDeltaStatus, event.StatusLanded, event.TypeFAAPosition)
		cl.Central.SetComplexTuple(
			[]event.Status{event.StatusLanded, event.StatusAtRunway, event.StatusAtGate},
			event.TypeFlightArrived)
	} else {
		cl.Central.InstallSimple()
	}
	h.lagMirrors = []int{0, 1}
	if sp.burst > 0 {
		// Explicit Exclude/Rejoin only: the miss budget is out of reach
		// so the failure detector never fires on its own.
		h.mem = core.NewMembership(cl.Central, core.MembershipConfig{MissedRounds: 1 << 30})
		h.lagMirrors = []int{0}
	}
	if sp.reqRate > 0 {
		for i, m := range cl.Targets() {
			f := httpfront.New(m)
			addr, err := f.Listen("127.0.0.1:0")
			if err != nil {
				h.close()
				return nil, fmt.Errorf("front %d: %w", i, err)
			}
			h.fronts = append(h.fronts, f)
			h.urls = append(h.urls, "http://"+addr+"/init")
		}
	}
	return h, nil
}

func (h *harness) close() {
	for _, f := range h.fronts {
		_ = f.Close() // only ever read from; nothing to flush
	}
	h.cl.Close()
	h.sl.close()
}

// ingest hands one event to the central site, due at the given
// instant. Every sampleEvery-th event leaves a stamp in the ring for
// the sink and the watcher to time it against.
func (h *harness) ingest(e *event.Event, due int64, traced bool) error {
	ord := h.ingested.Load() + 1
	if ord%sampleEvery == 0 {
		idx := ord / sampleEvery
		if idx-h.watchCur.Load() >= ringSize || idx-h.sink.emitted.Load()/sampleEvery >= ringSize {
			h.overflow++
		} else {
			h.ring[idx&(ringSize-1)] = sample{ord: ord, due: due, traced: traced}
			h.published.Store(idx)
		}
	}
	h.ingested.Store(ord)
	if err := h.cl.Central.Ingest(e); err != nil {
		return fmt.Errorf("ingest event %d: %w", ord, err)
	}
	return nil
}

// watermark is the ordinal of the newest event mirror i's replica
// reflects. The central stamps one vector-clock component per event,
// so the component sum of a replica's progress timestamp is an event
// ordinal; unlike Processed() it also moves for the events a selective
// filter folded away and for state installed by a rejoin.
func (h *harness) watermark(i int) uint64 {
	return h.cl.Mirrors[i].Main().LastProcessed().Sum()
}

// applied is the ordinal every lag mirror has reached.
func (h *harness) applied() uint64 {
	min := h.watermark(h.lagMirrors[0])
	for _, i := range h.lagMirrors[1:] {
		if w := h.watermark(i); w < min {
			min = w
		}
	}
	return min
}

// settled reports whether the central's client stream and the lag
// mirrors reflect everything up to ordinal target.
func (h *harness) settled(target uint64) bool {
	if h.sink.emitted.Load() < target {
		return false
	}
	if !h.sp.selective {
		return h.applied() >= target
	}
	// A selective filter folds the tail of the stream away, so the
	// replicas' progress stops short of target; they are settled once
	// they have applied the weight of everything that was mirrored.
	w := h.cl.Central.Stats().MirroredWeight
	for _, m := range h.cl.Mirrors {
		if m.Processed() < w {
			return false
		}
	}
	return true
}

// quiesce waits until the pipeline has caught up with everything
// ingested.
func (h *harness) quiesce() error {
	deadline := time.Now().Add(quiesceTimeout)
	target := h.ingested.Load()
	for !h.settled(target) {
		if time.Now().After(deadline) {
			return fmt.Errorf("pipeline did not catch up within %v: ingested %d, emitted %d, applied %d",
				quiesceTimeout, target, h.sink.emitted.Load(), h.applied())
		}
		h.sl.sleep(pollPeriod)
	}
	return nil
}

// feedWindowed pushes n events through as fast as they are taken, with
// at most size of them not yet applied on the slowest mirror: the
// set-up work (population and warm-up). next supplies the events.
func (h *harness) feedWindowed(n, size int, next func() *event.Event) error {
	deadline := time.Now().Add(quiesceTimeout)
	for n > 0 {
		room := size - int(h.ingested.Load()-h.applied())
		if room <= 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("windowed feed stalled with %d events to go", n)
			}
			h.sl.sleep(pollPeriod)
			continue
		}
		if room > n {
			room = n
		}
		due := h.now()
		for i := 0; i < room; i++ {
			if err := h.ingest(next(), due, false); err != nil {
				return err
			}
		}
		n -= room
		deadline = time.Now().Add(quiesceTimeout)
	}
	return nil
}

// reading is what the watcher notes each time a segment boundary
// passes; segment values are differences of consecutive readings.
type reading struct {
	t        int64 // ns since harness start
	cpu      time.Duration
	ingested uint64
	applied  uint64 // reached by the client stream and every lag mirror
}

// observer is the watcher goroutine's output.
type observer struct {
	lag      *segmented        // sampled events: due -> applied on every lag mirror
	little   []littleEstimator // per segment: the backlog behind the slowest lag mirror
	bounds   []reading         // one per segment boundary, first to last
	ready    gauge
	backup   gauge
	outbox   gauge
	mainQ    gauge
	pending  gauge
	chkptMs  []float64 // duration of the benchmark's own Checkpoint() calls
	unlagged uint64    // samples still unapplied when the watcher stopped
}

// pollPeriod is the watcher's cadence. It sleeps in the kernel between
// polls and never spins: on two cores a spinning observer starves the
// link senders it is trying to observe.
const pollPeriod = time.Millisecond

// watch polls the mirrors' progress every pollPeriod until stop
// closes.
func (h *harness) watch(stop <-chan struct{}, w *window, ob *observer, wg *sync.WaitGroup) {
	defer wg.Done()
	sl := newSleeper()
	defer sl.close()
	buf := h.tr.buf()
	cur := h.watchCur.Load()
	perMirror := make([]uint64, len(h.lagMirrors))
	for i := range perMirror {
		perMirror[i] = cur
	}
	wms := make([]uint64, len(h.lagMirrors))
	lastChkpt := h.now()
	prev := lastChkpt
	for iter := 0; ; iter++ {
		stopping := false
		select {
		case <-stop:
			stopping = true
		default:
			sl.sleep(pollPeriod)
		}
		ing := h.ingested.Load()
		pub := h.published.Load()
		min := ^uint64(0)
		for k, i := range h.lagMirrors {
			wms[k] = h.watermark(i)
			if wms[k] < min {
				min = wms[k]
			}
		}
		now := h.now()
		// A replica passed an ordinal somewhere between the last poll
		// and this one; the middle of that interval is the unbiased
		// guess, and over thousands of samples the half-poll error of
		// each averages out of the percentiles.
		seen := (prev + now) / 2
		prev = now
		if seg := w.seg(now); seg >= 0 {
			backlog := 0.0
			if ing > min {
				backlog = float64(ing - min)
			}
			ob.little[seg].observe(float64(now)/1e9, backlog)
		}
		for len(ob.bounds) <= w.nseg && (stopping || now >= w.start+int64(len(ob.bounds))*w.segLen) {
			applied := min
			if e := h.sink.emitted.Load(); e < applied {
				applied = e
			}
			ob.bounds = append(ob.bounds, reading{t: now, cpu: cpuTime(), ingested: ing, applied: applied})
		}
		for cur < pub {
			ent := h.ring[(cur+1)&(ringSize-1)]
			if ent.ord != (cur+1)*sampleEvery {
				cur++ // skipped by the feeder when the ring was full
				continue
			}
			if ent.ord > min {
				break
			}
			cur++
			ob.lag.add(w.seg(ent.due), float64(seen-ent.due)/1e6)
		}
		h.watchCur.Store(cur)
		if buf != nil {
			for k, i := range h.lagMirrors {
				for perMirror[k] < pub {
					ent := h.ring[(perMirror[k]+1)&(ringSize-1)]
					matched := ent.ord == (perMirror[k]+1)*sampleEvery
					if matched && ent.ord > wms[k] {
						break
					}
					perMirror[k]++
					if matched && ent.traced && w.seg(ent.due) >= 0 {
						buf.record(fmt.Sprintf("mirror_apply.%d", i), "ingest_burst", ent.ord, ent.due, seen)
					}
				}
			}
		}
		if stopping {
			ob.unlagged = h.published.Load() - cur
			return
		}
		if w.seg(now) < 0 {
			continue
		}
		if iter%int(10*time.Millisecond/pollPeriod) == 0 {
			h.sampleCounters(ob, now)
		}
		if now-lastChkpt >= int64(time.Second) {
			lastChkpt = now
			start := h.now()
			h.cl.Central.Checkpoint()
			end := h.now()
			ob.chkptMs = append(ob.chkptMs, float64(end-start)/1e6)
			buf.record("checkpoint", "", uint64(len(ob.chkptMs)), start, end)
		}
	}
}

// perSegment turns the boundary readings into one value per segment;
// segments the watcher slept through (no time or nothing counted
// between two readings) are left out.
func (ob *observer) perSegment(f func(seg int, a, b reading) (float64, bool)) []float64 {
	var out []float64
	for s := 0; s+1 < len(ob.bounds); s++ {
		a, b := ob.bounds[s], ob.bounds[s+1]
		if b.t <= a.t {
			continue
		}
		if v, ok := f(s, a, b); ok {
			out = append(out, v)
		}
	}
	return out
}

// sampleCounters reads the queue depths between layers (100 Hz).
// LinkStats.MaxDepth is windowed and resets at each telemetry tick,
// so the outbox peak is taken from Depth here instead.
func (h *harness) sampleCounters(ob *observer, now int64) {
	s := h.cl.Central.Sample()
	outbox := 0
	for _, ls := range h.cl.Central.LinkStats() {
		if ls.Depth > outbox {
			outbox = ls.Depth
		}
	}
	mainQ := h.cl.Central.Main().QueueLen()
	pending := 0
	for _, m := range h.cl.Mirrors {
		pending += m.Main().PendingRequests()
	}
	ob.ready.observe(float64(s.Ready))
	ob.backup.observe(float64(s.Backup))
	ob.outbox.observe(float64(outbox))
	ob.mainQ.observe(float64(mainQ))
	ob.pending.observe(float64(pending))
	if h.tr != nil {
		h.tr.counters = append(h.tr.counters, counterSample{
			T: now, Ready: s.Ready, Backup: s.Backup, Outbox: outbox, MainQueue: mainQ, Pending: pending,
		})
	}
}

// counters is a reading of the system's cumulative public counters.
type counters struct {
	stats       core.CentralStats
	links       []core.LinkStats
	rejoin      core.RejoinStats
	slabHit     uint64
	slabMiss    uint64
	cacheHit    uint64
	cacheMiss   uint64
	served      uint64
	wireBatches uint64
	wireEvents  uint64
	front       httpfront.Stats
}

func (h *harness) readCounters() counters {
	c := counters{
		stats:  h.cl.Central.Stats(),
		links:  h.cl.Central.LinkStats(),
		rejoin: h.cl.Central.RejoinStats(),
	}
	c.slabHit, c.slabMiss, _ = event.SlabPoolStats()
	for i, m := range h.cl.Mirrors {
		hit, miss := m.Main().SnapshotCacheStats()
		c.cacheHit += hit
		c.cacheMiss += miss
		c.served += m.Main().ServedRequests()
		c.wireBatches += h.wireBatch[i].Count()
		c.wireEvents += uint64(h.wireBatch[i].Sum())
	}
	for _, f := range h.fronts {
		s := f.Stats()
		c.front.Requests += s.Requests
		c.front.Busy += s.Busy
		c.front.Bytes += s.Bytes
	}
	return c
}
