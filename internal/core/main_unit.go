package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/vclock"
)

// Sender is the per-event outbound interface of control and client
// links (mirror data links are DataSenders): both echo.LocalChannel and
// echo.SendLink satisfy it.
type Sender interface {
	Submit(*event.Event) error
}

// ErrUnitClosed is returned when submitting work to a closed unit.
var ErrUnitClosed = errors.New("core: unit closed")

// ErrBusy is returned when the pending request buffer is full.
var ErrBusy = errors.New("core: request buffer full")

// MainConfig parameterizes a MainUnit.
type MainConfig struct {
	// EDE configures the unit's Event Derivation Engine.
	EDE ede.Config
	// Out, when non-nil, receives the state updates the EDE emits to
	// regular clients (only the central site sets this).
	Out Sender
	// DelayHist, when non-nil, records per-event update delays
	// (ingress → emission), the metric of Figures 8 and 9.
	DelayHist *metrics.Histogram
	// DelaySeries, when non-nil, records update delays against wall
	// time (Figure 9's time axis).
	DelaySeries *metrics.Series
	// RequestBuffer bounds the pending client request buffer; the
	// buffer's length is one of the adaptation-monitored variables.
	RequestBuffer int
	// RequestWorkers bounds the pool of goroutines serving client
	// requests from the buffer (default DefaultRequestWorkers). With
	// the EDE's sharded state and epoch-cached snapshots, concurrent
	// workers serve warm-cache requests in parallel; the pool bound
	// keeps a storm from spawning unbounded goroutines.
	RequestWorkers int
	// RequestHist, when non-nil, records per-request latencies
	// (enqueue → response ready), the serve-path analogue of
	// DelayHist.
	RequestHist *metrics.Histogram
	// QueueCap bounds the inbound event queue; Deliver blocks when it
	// is full, back-pressuring the feeding task to the EDE's pace.
	// 0 leaves the queue unbounded.
	QueueCap int
	// Obs, when non-nil, exports the unit's queue depth, serving and
	// snapshot-cache counters, labeled with Site.
	Obs  *obs.Registry
	Site string
	// Tracer, when non-nil, receives lifecycle stage latencies: the
	// central path decomposed from event stamps, or (TraceMirror) the
	// replica-freshness lag of a mirror's EDE.
	Tracer *obs.Tracer
	// TraceMirror selects the mirror-apply stage instead of the
	// central-path decomposition.
	TraceMirror bool
}

// InitRequest is one thin-client request for a fresh initialization
// state.
type InitRequest struct {
	// EnqueuedAt is stamped when the request enters the buffer.
	EnqueuedAt time.Time
	// Resp receives the initialization state; it is closed without a
	// value if the unit shuts down first.
	Resp chan ede.Snapshot
}

// MainUnit hosts a site's EDE: it processes events forwarded by the
// auxiliary unit, emits state updates (central site), answers
// initialization-state requests (primarily mirror sites), and
// participates in checkpointing by reporting its processing progress.
type MainUnit struct {
	engine *ede.Engine
	cfg    MainConfig
	in     *queue.Ready

	reqMu     sync.RWMutex
	reqQ      chan *InitRequest
	reqClosed bool

	pendingReqs atomic.Int64
	servedReqs  atomic.Uint64
	emitted     atomic.Uint64

	// applyLagMicros is an EWMA (alpha 1/4) of per-event update delay
	// in microseconds, maintained by the single processLoop goroutine
	// when TraceMirror is set. Mirror sites piggyback it on control
	// events as the ApplyLag monitored variable.
	applyLagMicros atomic.Int64

	barrierMu sync.Mutex
	barriers  []func()

	procWG    sync.WaitGroup
	reqWG     sync.WaitGroup
	closeOnce sync.Once
}

// DefaultRequestWorkers is the request worker-pool size when
// MainConfig.RequestWorkers is unset. A warm snapshot-cache hit is a
// shared-segment handout, so a small pool saturates the serving path;
// more workers only add scheduling churn.
const DefaultRequestWorkers = 4

// NewMainUnit starts a main unit's processing and request-serving
// goroutines.
func NewMainUnit(cfg MainConfig) *MainUnit {
	if cfg.RequestBuffer <= 0 {
		cfg.RequestBuffer = 4096
	}
	if cfg.RequestWorkers <= 0 {
		cfg.RequestWorkers = DefaultRequestWorkers
	}
	m := &MainUnit{
		engine: ede.New(cfg.EDE),
		cfg:    cfg,
		in:     queue.NewReady(cfg.QueueCap),
		reqQ:   make(chan *InitRequest, cfg.RequestBuffer),
	}
	if r := cfg.Obs; r != nil {
		site := obs.L("site", cfg.Site)
		m.engine.State().RegisterMetrics(r, cfg.Site)
		r.Func(famMainQueueDepth, func() float64 { return float64(m.in.Len()) }, site)
		r.Func(famPendingRequests, func() float64 { return float64(m.PendingRequests()) }, site)
		r.Func(famRequestsServed, obs.Load(&m.servedReqs), site)
		r.Func(famEventsProcessed, func() float64 { return float64(m.Processed()) }, site)
		r.Func(famUpdatesEmitted, obs.Load(&m.emitted), site)
		if m.cfg.RequestHist == nil {
			m.cfg.RequestHist = r.Histogram(FamRequestLatency, site)
		}
	}
	m.procWG.Add(1)
	go m.processLoop()
	for i := 0; i < cfg.RequestWorkers; i++ {
		m.reqWG.Add(1)
		go m.requestLoop()
	}
	return m
}

// Engine exposes the unit's EDE.
func (m *MainUnit) Engine() *ede.Engine { return m.engine }

// Site returns the site label the unit's series carry.
func (m *MainUnit) Site() string { return m.cfg.Site }

// Deliver hands one forwarded event to the unit: DeliverBatch for a
// run of one.
func (m *MainUnit) Deliver(e *event.Event) error {
	one := [1]*event.Event{e}
	return m.DeliverBatch(one[:])
}

// DeliverBatch hands a run of forwarded events to the unit, in order,
// under one queue lock. The unit retains the events, never the slice.
// If the unit closes first it returns ErrUnitClosed; events enqueued
// before the close are still processed.
func (m *MainUnit) DeliverBatch(run []*event.Event) error {
	if err := m.in.PutBatch(run); err != nil {
		return ErrUnitClosed
	}
	return nil
}

// Barrier enqueues a sentinel into the unit's inbound event queue and
// runs fn from the processing goroutine when the sentinel is reached.
// Because the processing goroutine is the only writer of EDE state,
// fn observes the state produced by exactly the events delivered
// before the Barrier call — an exact (state, progress) cut, which is
// what mirror recovery snapshots require. Barrier returns once fn has
// run; it returns ErrUnitClosed (without running fn) if the unit shut
// down first. fn must not call Deliver or Barrier on the same unit.
func (m *MainUnit) Barrier(fn func()) error {
	done := make(chan struct{})
	m.barrierMu.Lock()
	m.barriers = append(m.barriers, func() {
		fn()
		close(done)
	})
	// Pairing the append and the Put under barrierMu keeps concurrent
	// Barrier calls FIFO-matched with their sentinels.
	err := m.in.Put(&event.Event{Type: event.TypeBarrier})
	if err != nil {
		m.barriers = m.barriers[:len(m.barriers)-1]
		m.barrierMu.Unlock()
		return ErrUnitClosed
	}
	m.barrierMu.Unlock()
	<-done
	return nil
}

// applyRun bounds how many queued events processLoop takes per queue
// hop. A run is whatever is queued at that moment, up to this bound —
// the loop never waits for a run to fill, so batching adds no latency
// at rates where the queue holds one event at a time.
const applyRun = 256

// processLoop drains the inbound queue a run at a time: one queue hop,
// as few ledger operations as pacing allows and one histogram flush
// per run, while each event's update still leaves — and the progress
// watermark still advances — the moment that event is applied.
func (m *MainUnit) processLoop() {
	defer m.procWG.Done()
	a := applier{m: m, evs: make([]event.Event, 0, applyRun)}
	run := make([]*event.Event, 0, applyRun)
	for {
		var err error
		run, err = m.in.GetAppend(run[:0], applyRun)
		if err != nil {
			return
		}
		// Barrier sentinels keep their exact position: the events queued
		// before one are applied (and their accounting flushed) before
		// its function runs.
		for start := 0; start < len(run); {
			end := start
			for end < len(run) && run[end].Type != event.TypeBarrier {
				end++
			}
			a.apply(run[start:end])
			if end < len(run) {
				m.barrierMu.Lock()
				fn := m.barriers[0]
				m.barriers = m.barriers[1:]
				m.barrierMu.Unlock()
				fn()
				end++
			}
			start = end
		}
		// Do not pin retired slabs against the collector between runs.
		clear(run)
	}
}

// applier is processLoop's per-run scratch: its own copies of a run's
// events and the latency samples buffered until the run's flush.
type applier struct {
	m      *MainUnit
	evs    []event.Event
	delays []time.Duration
	path   obs.CentralPath
}

// apply runs one barrier-free run through the EDE and flushes its
// accounting.
func (a *applier) apply(run []*event.Event) {
	if len(run) == 0 {
		return
	}
	m := a.m
	// Copy every event before the engine sees the run: the moment the
	// engine folds an event's timestamp into the progress watermark, a
	// checkpoint commit may trim the backup queue and recycle the slab
	// an owned view borrows from, so run[i] must not be touched once it
	// has been applied. Scalar reads in emit come from these copies.
	// (Events later in the run are still above the watermark, and their
	// slabs live until a commit trims past them.) The Payload/VT aliases
	// only reach the Out stream, which exists solely on the central
	// site, whose main unit processes heap originals — a mirror site
	// configuring Out would need to clone them first.
	a.evs = a.evs[:0]
	for _, e := range run {
		a.evs = append(a.evs, *e)
	}
	lag := m.applyLagMicros.Load()
	emitted := uint64(0)
	timed := m.cfg.DelayHist != nil || m.cfg.DelaySeries != nil || m.cfg.Tracer != nil || m.cfg.TraceMirror
	// The emission instant comes from the node's timeline (the
	// virtual-CPU charge), so update delays reflect the node's booked
	// processing, not the host's scheduling.
	m.engine.ProcessRun(run, func(i int, derived []*event.Event, done time.Time) {
		ev := &a.evs[i]
		if timed && ev.Ingress != 0 {
			delay := ev.Age(done)
			if delay < 0 {
				// The virtual CPU's catch-up window can book work
				// slightly in the past; an event cannot complete
				// before it arrived.
				delay = 0
			}
			a.delays = append(a.delays, delay)
			if m.cfg.DelaySeries != nil {
				m.cfg.DelaySeries.Observe(done, float64(delay)/float64(time.Microsecond))
			}
			if m.cfg.TraceMirror {
				lag += (int64(delay/time.Microsecond) - lag) / 4
			} else if m.cfg.Tracer != nil {
				a.path.Add(ev.Ingress, ev.ReadyAt, ev.ForwardAt, done)
			}
		}
		if m.cfg.Out != nil {
			// Position updates carry the source payload so thin
			// clients can advance their local views from the stream
			// alone; other updates are identified by their Status
			// field and payloads are not forwarded (clients receive
			// derived events for boarding/arrival).
			var payload []byte
			if ev.Type == event.TypeFAAPosition {
				payload = ev.Payload
			}
			update := &event.Event{
				Type:      event.TypeStateUpdate,
				Flight:    ev.Flight,
				Stream:    ev.Stream,
				Seq:       ev.Seq,
				Status:    ev.Status,
				Coalesced: ev.Weight(),
				VT:        ev.VT,
				Ingress:   ev.Ingress,
				Payload:   payload,
			}
			if m.cfg.Out.Submit(update) == nil {
				emitted++
			}
			for _, d := range derived {
				if m.cfg.Out.Submit(d) == nil {
					emitted++
				}
			}
		}
	})

	// One flush per run: every sample buffered above is booked before
	// the next barrier function or queue hop, in event order.
	if emitted > 0 {
		m.emitted.Add(emitted)
	}
	if m.cfg.DelayHist != nil {
		m.cfg.DelayHist.RecordBatch(a.delays)
	}
	if m.cfg.TraceMirror {
		// processLoop is the only writer of the EWMA (alpha 1/4), so it
		// is carried in a local across the run and published once.
		m.applyLagMicros.Store(lag)
		m.cfg.Tracer.ObserveBatch(obs.StageMirrorApply, a.delays)
	} else {
		m.cfg.Tracer.ObserveCentralPath(&a.path)
	}
	a.delays = a.delays[:0]
	// The copies alias payloads and timestamps; drop them with the run.
	clear(a.evs)
}

// Request enqueues a client init-state request. It returns
// ErrUnitClosed after Close and ErrBusy when the pending buffer is
// full.
func (m *MainUnit) Request(r *InitRequest) error {
	// Stamp before taking the lock: the enqueue instant should not
	// include time spent waiting behind Close, and keeping the
	// critical section to the closed-check plus the non-blocking send
	// keeps concurrent requesters off each other's backs.
	r.EnqueuedAt = time.Now()
	m.reqMu.RLock()
	defer m.reqMu.RUnlock()
	if m.reqClosed {
		return ErrUnitClosed
	}
	select {
	case m.reqQ <- r:
		m.pendingReqs.Add(1)
		return nil
	default:
		return ErrBusy
	}
}

// RequestInitState performs a synchronous init-state request.
func (m *MainUnit) RequestInitState() (ede.Snapshot, error) {
	r := &InitRequest{Resp: make(chan ede.Snapshot, 1)}
	if err := m.Request(r); err != nil {
		return ede.Snapshot{}, err
	}
	state, ok := <-r.Resp
	if !ok {
		return ede.Snapshot{}, ErrUnitClosed
	}
	return state, nil
}

// requestLoop is one worker of the bounded serving pool: every worker
// feeds from the shared reqQ, so a storm drains through
// RequestWorkers concurrent ServeInitState calls (warm cache hits run
// fully in parallel; cold ones single-flight on the cache rebuild).
func (m *MainUnit) requestLoop() {
	defer m.reqWG.Done()
	for r := range m.reqQ {
		state := m.engine.ServeInitState()
		m.pendingReqs.Add(-1)
		m.servedReqs.Add(1)
		if m.cfg.RequestHist != nil && !r.EnqueuedAt.IsZero() {
			m.cfg.RequestHist.Record(time.Since(r.EnqueuedAt))
		}
		if r.Resp != nil {
			r.Resp <- state
		}
	}
}

// PendingRequests returns the current depth of the client request
// buffer (an adaptation-monitored variable).
func (m *MainUnit) PendingRequests() int {
	n := m.pendingReqs.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// ServedRequests returns the number of requests answered.
func (m *MainUnit) ServedRequests() uint64 { return m.servedReqs.Load() }

// SnapshotCacheStats reports the EDE snapshot cache's hit and miss
// counts for the init-state serving path.
func (m *MainUnit) SnapshotCacheStats() (hits, misses uint64) {
	hits, misses, _, _ = m.engine.State().CacheStats()
	return hits, misses
}

// EmittedUpdates returns the number of output events sent to clients.
func (m *MainUnit) EmittedUpdates() uint64 { return m.emitted.Load() }

// ApplyLagMicros returns the smoothed update-delay EWMA in
// microseconds (0 unless TraceMirror is set).
func (m *MainUnit) ApplyLagMicros() int { return int(m.applyLagMicros.Load()) }

// Processed returns the weighted number of events applied by the EDE.
func (m *MainUnit) Processed() uint64 { return m.engine.State().Processed() }

// LastProcessed reports EDE progress for checkpointing.
func (m *MainUnit) LastProcessed() vclock.VC { return m.engine.LastProcessed() }

// QueueLen returns the depth of the unit's inbound event queue.
func (m *MainUnit) QueueLen() int { return m.in.Len() }

// DrainEvents stops accepting events and blocks until every delivered
// event has been processed. Request serving stays available until
// Close.
func (m *MainUnit) DrainEvents() {
	m.in.Close()
	m.procWG.Wait()
}

// Close shuts the unit down: the inbound event queue is drained, then
// request workers finish buffered requests and stop. Close blocks
// until all goroutines exit.
func (m *MainUnit) Close() {
	m.closeOnce.Do(func() {
		m.in.Close()
		m.procWG.Wait()
		m.reqMu.Lock()
		m.reqClosed = true
		close(m.reqQ)
		m.reqMu.Unlock()
		m.reqWG.Wait()
	})
}
