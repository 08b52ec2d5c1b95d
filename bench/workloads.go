package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// spec is one workload: the topology is always central + 2 mirrors on
// loopback TCP; what varies is the traffic. Rates are fixed constants
// sized on a 2-core box, never derived from the machine.
type spec struct {
	name string
	why  string

	flights    int // flights populated before the run
	hot        int // flights the measured stream draws from (0 = all)
	padding    int // StatePadding: extra snapshot bytes per flight
	posSize    int // FAA position payload bytes
	statusSize int // Delta status payload bytes

	rate      int  // open-loop events/s (0 = closed window)
	window    int  // closed loop: events in flight to the slowest mirror
	selective bool // the paper's selective mirroring instead of simple
	reqRate   int  // open-loop GET /init per second over both mirrors
	burst     int  // rejoin_cycle: events fed while mirror 1 is excluded

	deltaHorizon int // committed cuts the central journal retains (0 = default)
	warm         int // events pushed through during set-up
}

// workloads are the four traffic mixes; names are cited by later
// issues and must not change.
var workloads = []spec{
	{
		name:    "stream_steady",
		why:     "open loop 50k ev/s, 1 KiB positions, simple mirroring, no requests: update delay and mirror freshness at a sustainable rate",
		flights: 1000, padding: 64, posSize: 1024, statusSize: 256,
		rate: 50000, warm: 50000,
	},
	{
		name:    "stream_saturate",
		why:     "closed window of 4096 events, 256 B payloads: events/s when per-event overhead, not payload bytes, is the limit",
		flights: 1000, padding: 64, posSize: 256, statusSize: 256,
		window: 4096, warm: 50000,
	},
	{
		name:    "init_storm",
		why:     "20k ev/s selective mirroring plus open-loop 1500 GET /init per s on the mirrors: reads beside writes on the same state",
		flights: 1000, padding: 64, posSize: 1024, statusSize: 256,
		rate: 20000, selective: true, reqRate: 1500, warm: 50000,
	},
	{
		name:    "rejoin_cycle",
		why:     "exclude a mirror, feed 4000 events, rejoin it by delta or by 3 MB snapshot in turn: what recovery costs after a mirror crash",
		flights: 10000, hot: 200, padding: 256, posSize: 256, statusSize: 256,
		rate: 50000, burst: 4000, deltaHorizon: 4096, warm: 50000,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload to a one-second smoke: same wiring and
// checks, tiny rates, no meaningful timings.
func (sp spec) quick() spec {
	if sp.rate > 0 {
		sp.rate /= 10
	}
	if sp.window > 0 {
		sp.window = 256
	}
	if sp.reqRate > 0 {
		sp.reqRate = 100
	}
	if sp.burst > 0 {
		sp.burst = 200
	}
	if sp.flights > 1000 {
		sp.flights = 1000
	}
	sp.warm = 2000
	return sp
}

// runOpts are the knobs of one run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int // how many times set-up is run and timed (the last is kept)
	cold    int // leading set-ups left out of setup_s
	layerD  time.Duration
}

// result is everything one run measured.
type result struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Traced    bool
	Attempted uint64
	Failed    uint64
	Problems  []string // correctness failures; empty means outputs were right
	Invalid   []string // reasons the timings cannot be trusted
	Vals      map[string]float64
	Stats     map[string]segStat
	TracePath string
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setUp assembles a cluster and brings it to the state a measured run
// starts from: every flight populated, pools and heap warmed by a
// fixed amount of work, connections open, pipeline idle.
func setUp(sp spec, seed int64, tr *tracer) (*harness, error) {
	h, err := assemble(sp, seed, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*harness, error) {
		h.close()
		return nil, fmt.Errorf("set-up of %s: %w", sp.name, err)
	}
	i := 0
	if err := h.feedWindowed(sp.flights, 2048, func() *event.Event { i++; return h.gen.populateNext(i) }); err != nil {
		return fail(err)
	}
	h.gen.hot = sp.hot
	if err := h.feedWindowed(sp.warm, 2048, h.gen.next); err != nil {
		return fail(err)
	}
	if err := h.quiesce(); err != nil {
		return fail(err)
	}
	if sp.burst > 0 {
		// A delta rejoin needs a committed cut to present; make sure the
		// mirror that will be excluded has seen one commit.
		for deadline := time.Now().Add(quiesceTimeout); h.cl.Mirrors[1].Backup().Committed() == nil; {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("mirror 1 never saw a checkpoint commit"))
			}
			h.cl.Central.Checkpoint()
			h.sl.sleep(pollPeriod)
		}
	}
	for _, url := range h.urls {
		c := newInitClient()
		for k := 0; k < 20; k++ {
			if _, err := c.get(url, sp); err != nil {
				c.close()
				return fail(err)
			}
		}
		c.close()
	}
	return h, nil
}

// feedStats is what the feeder observed about itself.
type feedStats struct {
	lateMs   []float64 // per tick: burst start minus the tick's due time
	ingestNs []float64 // per burst: time inside Ingest calls per event
}

// burst ingests n events due at the given instant as tick k.
func (h *harness) burst(k int, due int64, n int, fs *feedStats) error {
	begin := h.now()
	fs.lateMs = append(fs.lateMs, float64(begin-due)/1e6)
	if n <= 0 {
		return nil
	}
	// A traced run records spans for one sampled event of every
	// spanTickStride-th burst. Which one rotates through the burst:
	// events later in a burst queue behind the earlier ones, so always
	// taking the first would make the spans read faster than the run.
	spanFrom := -1
	if h.tr != nil && k%spanTickStride == 0 {
		spanFrom = k / spanTickStride * 37 % n
	}
	var spanOrd uint64
	for i := 0; i < n; i++ {
		traced := false
		if spanFrom >= 0 && i >= spanFrom && spanOrd == 0 {
			if ord := h.ingested.Load() + 1; ord%sampleEvery == 0 {
				traced, spanOrd = true, ord
			}
		}
		if err := h.ingest(h.gen.next(), due, traced); err != nil {
			return err
		}
	}
	end := h.now()
	fs.ingestNs = append(fs.ingestNs, float64(end-begin)/float64(n))
	if spanOrd != 0 {
		h.feedBuf.record("ingest_burst", "", spanOrd, due, end)
	}
	return nil
}

// feedOpen runs the open-loop schedule from `from` until `until`: one
// burst per tick, each event due at its tick's scheduled instant
// whether or not the generator was on time.
func (h *harness) feedOpen(from, until int64, rate int, fs *feedStats) error {
	p := pacer{start: h.t0.Add(time.Duration(from)), period: tickPeriod}
	nticks := int((until - from) / int64(tickPeriod))
	for p.next < nticks {
		p.wait(h.sl)
		k, ok := p.pending(time.Now())
		if !ok {
			continue
		}
		due := from + int64(k)*int64(tickPeriod)
		if err := h.burst(k, due, eventsInTick(k, rate, tickPeriod), fs); err != nil {
			return err
		}
	}
	return nil
}

// feedClosed keeps `window` events in flight to the slowest mirror,
// refilling once per tick; an event is due when it is sent.
func (h *harness) feedClosed(w *window, size int, fs *feedStats) error {
	p := pacer{start: h.t0.Add(time.Duration(w.start)), period: tickPeriod}
	for {
		p.wait(h.sl)
		k, _ := p.pending(time.Now())
		now := h.now()
		if now >= w.end {
			return nil
		}
		room := size - int(h.ingested.Load()-h.applied())
		if err := h.burst(k, now, room, fs); err != nil {
			return err
		}
	}
}

// cycle is one exclude / feed / rejoin round of rejoin_cycle.
type cycle struct {
	delta    bool
	callMs   float64 // the RejoinSince call itself
	convMs   float64 // call -> mirror 1 reflects everything ingested
	replayed int
	ok       bool
}

// feedRejoin runs exclude / feed / rejoin cycles until the window
// ends. Even cycles present mirror 1's committed cut (delta transfer),
// odd cycles present none (full snapshot).
func (h *harness) feedRejoin(w *window, res *result, fs *feedStats) ([]cycle, error) {
	buf := h.tr.buf()
	var cycles []cycle
	for n := 0; h.now() < w.end; n++ {
		if err := h.mem.Exclude(1); err != nil {
			return cycles, err
		}
		from := h.now()
		until := from + int64(h.sp.burst)*int64(time.Second)/int64(h.sp.rate)
		if err := h.feedOpen(from, until, h.sp.rate, fs); err != nil {
			return cycles, err
		}
		c := cycle{delta: n%2 == 0}
		var cut vclock.VC
		if c.delta {
			cut = h.cl.Mirrors[1].Backup().Committed()
		}
		before := h.cl.Central.RejoinStats()
		at := h.now()
		replayed, err := h.mem.RejoinSince(1, cut)
		called := h.now()
		if err != nil {
			return cycles, fmt.Errorf("cycle %d: %w", n, err)
		}
		// Convergence is read off the cheap progress watermark; the
		// byte comparison below stays outside the timed region.
		target := h.ingested.Load()
		polled := called
		for deadline := time.Now().Add(quiesceTimeout); h.watermark(1) < target; {
			if time.Now().After(deadline) {
				return cycles, fmt.Errorf("cycle %d: mirror 1 did not converge", n)
			}
			polled = h.now()
			h.sl.sleep(pollPeriod)
		}
		// Converged between the last two polls: take the middle.
		done := (polled + h.now()) / 2
		c.callMs = float64(called-at) / 1e6
		c.convMs = float64(done-at) / 1e6
		c.replayed = replayed
		buf.record("rejoin", "", uint64(n), at, done)

		if err := h.quiesce(); err != nil {
			return cycles, err
		}
		after := h.cl.Central.RejoinStats()
		modeTaken := after.Snapshots == before.Snapshots+1 && after.Deltas == before.Deltas
		if c.delta {
			modeTaken = after.Deltas == before.Deltas+1 && after.Snapshots == before.Snapshots
		}
		equal := bytes.Equal(h.snapshot(-1), h.snapshot(1))
		c.ok = modeTaken && equal
		if !modeTaken {
			res.problem("cycle %d: requested delta=%v but rejoin stats moved %+v -> %+v", n, c.delta, before, after)
		}
		if !equal {
			res.problem("cycle %d: mirror 1 is not byte-equal to the central after rejoin", n)
		}
		cycles = append(cycles, c)
	}
	return cycles, nil
}

// snapshot serializes site i's state (-1 = the central) straight from
// the flight table, bypassing the snapshot cache so correctness checks
// leave the cache counters alone.
func (h *harness) snapshot(i int) []byte {
	main := h.cl.Central.Main()
	if i >= 0 {
		main = h.cl.Mirrors[i].Main()
	}
	return main.Engine().State().Snapshot()
}

// initClient is one thin client's keep-alive connection.
type initClient struct {
	c    *http.Client
	body bytes.Buffer
}

func newInitClient() *initClient {
	return &initClient{c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   quiesceTimeout,
	}}
}

func (ic *initClient) close() { ic.c.CloseIdleConnections() }

// get fetches one initialization state and checks it the way a thin
// client depends on it: 200, a parsable X-Init-VT anchor, a body that
// decodes to every flight.
func (ic *initClient) get(url string, sp spec) (int, error) {
	resp, err := ic.c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	ic.body.Reset()
	if _, err := io.Copy(&ic.body, resp.Body); err != nil {
		return 0, fmt.Errorf("reading body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if _, err := vclock.Parse(resp.Header.Get("X-Init-VT")); err != nil {
		return 0, fmt.Errorf("X-Init-VT: %w", err)
	}
	flights, err := ede.DecodeSnapshot(ic.body.Bytes(), sp.padding)
	if err != nil {
		return 0, err
	}
	if len(flights) != sp.flights {
		return 0, fmt.Errorf("snapshot holds %d flights, want %d", len(flights), sp.flights)
	}
	return ic.body.Len(), nil
}

// reqStats is one HTTP worker's output.
type reqStats struct {
	lat       *segmented
	attempted uint64
	failed    uint64
	firstErr  error
	bytes     int
}

// httpWorker is one thin-client connection issuing its share of the
// open-loop request schedule against one mirror's front: request j of
// the global schedule is due at start + j/rate and belongs to worker
// j mod workers. Latency runs from due to body decoded.
func (h *harness) httpWorker(idx, workers int, w *window, out *reqStats, wg *sync.WaitGroup) {
	defer wg.Done()
	buf := h.tr.buf()
	ic := newInitClient()
	defer ic.close()
	sl := newSleeper()
	defer sl.close()
	for j := idx; ; j += workers {
		due := w.start + int64(j)*int64(time.Second)/int64(h.sp.reqRate)
		if due >= w.end {
			return
		}
		sl.sleep(time.Duration(due - h.now()))
		out.attempted++
		n, err := ic.get(h.urls[idx%len(h.urls)], h.sp)
		done := h.now()
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
			continue
		}
		out.bytes = n
		out.lat.add(w.seg(due), float64(done-due)/1e6)
		buf.record("init_http", "", uint64(j), due, done)
	}
}

// segmentLen is the length of the pieces a measured window is cut
// into. Every reported value is the median over segments of the
// segment's own value, so a host stall moves one segment in forty, not
// the result. Half a second still holds thousands of samples.
const segmentLen = 500 * time.Millisecond

// runWorkload sets a workload up (timed, opts.setups times), measures
// it for opts.seconds, drains it, and checks its outputs.
func runWorkload(sp spec, o runOpts) (*result, error) {
	res := &result{
		Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Vals: map[string]float64{}, Stats: map[string]segStat{},
	}
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	var h *harness
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if h != nil {
			h.close()
			runtime.GC()
		}
		var use *tracer
		if i == o.setups-1 {
			use = tr
		}
		start := time.Now()
		var err error
		if h, err = setUp(sp, o.seed, use); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer h.close()
	res.Vals["setup_s"] = median(setups[o.cold:])

	length := int64(o.seconds * float64(time.Second))
	segments := int(length / int64(segmentLen))
	if segments < 4 {
		segments = 4
	}
	w := &window{nseg: segments, segLen: length / int64(segments)}
	w.start = h.now() + int64(2*time.Millisecond)
	w.end = w.start + w.segLen*int64(segments)

	ob := &observer{lag: newSegmented(segments), little: make([]littleEstimator, segments)}
	h.sink.delay = newSegmented(segments)
	h.win.Store(w)

	var bg sync.WaitGroup
	stopWatch := make(chan struct{})
	bg.Add(1)
	go h.watch(stopWatch, w, ob, &bg)
	var reqs []*reqStats
	var reqWG sync.WaitGroup
	if sp.reqRate > 0 {
		for i := range h.urls {
			rs := &reqStats{lat: newSegmented(segments)}
			reqs = append(reqs, rs)
			reqWG.Add(1)
			go h.httpWorker(i, len(h.urls), w, rs, &reqWG)
		}
	}

	resetPeakRSS()
	begin := takeUsage()
	c0 := h.readCounters()
	ing0 := h.ingested.Load()

	var fs feedStats
	var cycles []cycle
	var feedErr error
	switch {
	case sp.burst > 0:
		cycles, feedErr = h.feedRejoin(w, res, &fs)
	case sp.rate > 0:
		feedErr = h.feedOpen(w.start, w.end, sp.rate, &fs)
	default:
		feedErr = h.feedClosed(w, sp.window, &fs)
	}
	reqWG.Wait()

	ing1 := h.ingested.Load()
	elapsed := float64(h.now()-w.start) / 1e9
	end := takeUsage()
	c1 := h.readCounters()
	res.Vals["peak_rss_mb"] = peakRSSMB()

	if feedErr != nil {
		res.problem("feeding: %v", feedErr)
	} else if err := h.quiesce(); err != nil {
		res.problem("%v", err)
	}
	close(stopWatch)
	bg.Wait()
	h.cl.DrainAll()

	events := float64(ing1 - ing0)
	res.Attempted = ing1 - ing0 + uint64(len(cycles))
	res.Failed = h.overflow + h.sink.unmatched + h.sink.outOfOrder
	if !sp.selective {
		// (A selective filter folds the last few events of the stream
		// away, so their samples legitimately never reach a replica.)
		res.Failed += ob.unlagged
	}
	for i := range c1.links {
		res.Failed += c1.links[i].Dropped - c0.links[i].Dropped
	}
	for _, c := range cycles {
		if !c.ok {
			res.Failed++
		}
	}
	initLat := newSegmented(segments)
	for _, rs := range reqs {
		res.Attempted += rs.attempted
		res.Failed += rs.failed
		if rs.firstErr != nil {
			res.problem("GET /init: %v (%d of %d failed)", rs.firstErr, rs.failed, rs.attempted)
		}
		for s, seg := range rs.lat.segs {
			initLat.segs[s] = append(initLat.segs[s], seg...)
		}
	}
	h.verify(res)

	// End-to-end metrics.
	set := func(name string, st segStat) {
		res.Vals[name] = st.Value
		res.Stats[name] = st
	}
	set("update_delay_p50_ms", h.sink.delay.stat(50))
	set("update_delay_p99_ms", h.sink.delay.stat(99))
	// Little's law per segment: mean time in the backlog is the
	// backlog's time integral over the items that left it.
	set("mirror_lag_mean_ms", seriesStat(ob.perSegment(func(seg int, a, b reading) (float64, bool) {
		return ob.little[seg].meanWait(float64(b.applied-a.applied)) * 1e3, b.applied > a.applied
	})))
	set("events_per_s", seriesStat(ob.perSegment(func(_ int, a, b reading) (float64, bool) {
		return float64(b.applied-a.applied) / (float64(b.t-a.t) / 1e9), b.applied > a.applied
	})))
	set("cpu_us_per_event", seriesStat(ob.perSegment(func(_ int, a, b reading) (float64, bool) {
		return float64(b.cpu-a.cpu) / 1e3 / float64(b.ingested-a.ingested), b.ingested > a.ingested
	})))
	set("mirror_lag_p99_ms", ob.lag.stat(99))
	set("init_latency_p50_ms", initLat.stat(50))
	set("init_latency_p99_ms", initLat.stat(99))

	op := ob.lag
	var deltaMs, snapMs, callMs []float64
	if sp.reqRate > 0 {
		op = initLat
	}
	if sp.burst > 0 {
		// A run holds only some hundred cycle pairs: one segment, so
		// the tail percentile still has ten samples beyond it.
		op = newSegmented(1)
		// Delta and snapshot cycles alternate, so a median over all of
		// them would sit between two modes; a pair's sum has one mode.
		for i, c := range cycles {
			if c.delta {
				deltaMs = append(deltaMs, c.convMs)
			} else {
				snapMs = append(snapMs, c.convMs)
				op.add(0, cycles[i-1].convMs+c.convMs)
				callMs = append(callMs, cycles[i-1].callMs+c.callMs)
			}
		}
	}
	set("op_p50_ms", op.stat(50))
	set("op_tail_ms", op.stat(0))
	res.Vals["rejoin_delta_p50_ms"] = median(deltaMs)
	res.Vals["rejoin_snapshot_p50_ms"] = median(snapMs)
	res.Vals["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))

	h.layerCounters(res, c0, c1, begin, end, ob, &fs, cycles, callMs, events, elapsed)

	if late := res.Vals["bench.gen_late_p99_ms"]; late > 5 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator ran late: p99 %.2f ms > 5 ms", late))
	}
	for _, name := range []string{"update_delay_p50_ms", "op_p50_ms"} {
		if st := res.Stats[name]; st.Drift > 1.25 {
			res.Invalid = append(res.Invalid, fmt.Sprintf("%s unresolved: the run drifted, quarter medians differ by %.2fx (> 1.25)", name, st.Drift))
		}
	}

	if tr != nil {
		spans := tr.all()
		res.Vals["bench.trace_overhead_share"] = float64(len(spans)) * spanCostNs() / float64(end.cpu-begin.cpu)
		h.traceCheck(res, spans, ob)
		path, err := tr.write(traceDir, sp.name, o.seed)
		if err != nil {
			return nil, err
		}
		res.TracePath = path
		for name, v := range runLayers(sp, o.seed, o.layerD) {
			res.Vals[name] = v
		}
	}
	return res, nil
}

// verify checks the run's outputs after the pipeline has drained.
func (h *harness) verify(res *result) {
	ing := h.ingested.Load()
	if got := h.sink.emitted.Load(); got != ing || h.sink.outOfOrder != 0 {
		res.problem("client stream saw %d updates for %d events, %d out of order", got, ing, h.sink.outOfOrder)
	}
	central := h.snapshot(-1)
	if ref := referenceSnapshot(h.sp, h.gen); !bytes.Equal(central, ref) {
		res.problem("central state differs from the single-threaded reference (%d vs %d bytes)", len(central), len(ref))
	}
	m0, m1 := h.snapshot(0), h.snapshot(1)
	if !bytes.Equal(m0, m1) {
		res.problem("mirror 0 and mirror 1 differ")
	}
	// Selective mirroring folds positions away, so the replicas
	// legitimately trail the central; simple mirroring must match it.
	if !h.sp.selective && !bytes.Equal(m0, central) {
		res.problem("mirrors differ from the central")
	}
	res.Vals["ede.snapshot_bytes"] = float64(len(central))
}

// referenceSnapshot feeds the inputs the cluster was fed to one
// ede.Engine, single-threaded, and returns its state. Payloads are
// regenerated at minimum size: the rules read only the position
// header, and the generator draws nothing for padding.
func referenceSnapshot(sp spec, fed *generator) []byte {
	en := ede.New(ede.Config{StatePadding: sp.padding})
	g := newGenerator(fed.seed, sp.flights, 0, 1)
	g.replay(fed.phases, func(e *event.Event) { en.Process(e) })
	return en.State().Snapshot()
}

// traceCheck holds the trace against the untraced-style metrics of the
// same run: the emit spans must reproduce the update delay and the
// mirror_apply spans the mirror lag, or the spans are not measuring
// what the metrics measure.
func (h *harness) traceCheck(res *result, spans []span, ob *observer) {
	if h.sp.burst > 0 {
		return
	}
	emit := durationsMs(spans, "emit")
	var apply []float64
	byID := map[uint64]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "mirror_apply.") {
			if d := float64(s.End-s.Start) / 1e6; d > byID[s.ID] {
				byID[s.ID] = d
			}
		}
	}
	for _, d := range byID {
		apply = append(apply, d)
	}
	sort.Float64s(emit)
	sort.Float64s(apply)
	res.Vals["trace.emit_p50_ms"] = percentile(emit, 50)
	res.Vals["trace.mirror_apply_p99_ms"] = percentile(apply, 99)
	// The spans are too few for a p99 per segment, so theirs is over
	// the whole window; set it against the same figure of the samples.
	var lag []float64
	for _, seg := range ob.lag.segs {
		lag = append(lag, seg...)
	}
	sort.Float64s(lag)
	res.Vals["trace.lag_p99_whole_ms"] = percentile(lag, 99)
}
