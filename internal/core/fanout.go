package core

import (
	"strconv"
	"sync"
	"time"

	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/obs/linktelem"
)

// This file implements the central site's per-mirror fan-out pipeline.
// The sending task hands each filtered batch to every link's bounded
// outbox ring; a dedicated sender goroutine per link drains its ring
// and submits batches on the wire. A slow or stalled link therefore
// backs up only its own outbox — it can no longer head-of-line-block
// the other mirrors or the local main unit, preserving the paper's
// claim that mirroring does not perturb the central site's event
// processing.

// DefaultSendBatch is the sending task's default batch size (events
// removed from the ready queue per iteration when coalescing is off).
const DefaultSendBatch = 64

// DefaultOutboxDepth is the default per-link outbox capacity in
// events.
const DefaultOutboxDepth = 8192

// LinkStats is a snapshot of one mirror link's fan-out counters.
type LinkStats struct {
	// Enqueued counts events accepted into the link's outbox.
	Enqueued uint64
	// Sent counts events successfully submitted on the link (after
	// the per-link filter).
	Sent uint64
	// SentBytes counts payload bytes successfully submitted on the
	// link (regular batches plus recovery blocks).
	SentBytes uint64
	// Filtered counts events the per-link filter suppressed.
	Filtered uint64
	// Dropped counts events shed on outbox overflow (oldest first).
	Dropped uint64
	// Depth is the current outbox depth; MaxDepth its high-water mark.
	Depth    int
	MaxDepth int
	// Stall is the cumulative wall-clock time the link's sender spent
	// blocked inside transport submission.
	Stall time.Duration
}

// sendGroup tracks the slab reference of one enqueued batch while its
// events sit in the outbox ring: left counts the group's events still
// ringed, and ref (nil for un-owned batches) must be released once none
// remain anywhere — shed from the ring, or submitted and returned.
type sendGroup struct {
	left int
	ref  event.Ref
}

// linkSender owns one mirror link's data path: a bounded outbox ring
// fed by the sending task and a goroutine that drains it.
type linkSender struct {
	idx   int
	link  MirrorLink
	data  DataSender
	aux   *costmodel.CPU
	model costmodel.Model
	alive func(int) bool

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*event.Event // power-of-two ring
	head   int
	n      int
	closed bool
	groups []sendGroup // FIFO, parallel to ring occupancy

	// ioMu serializes wire submission (send and recoverySend) so a
	// recovery block — state snapshot plus backup replay — cannot
	// interleave with a regular drained batch, and so the liveness flip
	// that readmits a recovered mirror happens atomically with the
	// recovery submission.
	ioMu sync.Mutex

	tracer *obs.Tracer

	enqueued  *metrics.Counter
	sent      *metrics.Counter
	sentBytes *metrics.Counter
	filtered  *metrics.Counter
	dropped   *metrics.Counter
	depth     *metrics.Gauge
	stall     *metrics.DurationCounter

	// batchEvents/batchBytes sample each wire submission's event count
	// and payload bytes (value histograms, not durations).
	batchEvents *metrics.Histogram
	batchBytes  *metrics.Histogram
}

// newLinkSender sizes the ring to the next power of two covering
// depth events. Its counters live on reg under link_* families labeled
// by mirror index (a nil reg keeps them as private instruments).
func newLinkSender(idx int, link MirrorLink, depth int, aux *costmodel.CPU, model costmodel.Model, alive func(int) bool, reg *obs.Registry, tracer *obs.Tracer) *linkSender {
	if depth <= 0 {
		depth = DefaultOutboxDepth
	}
	size := 1
	for size < depth {
		size *= 2
	}
	s := &linkSender{
		idx:    idx,
		link:   link,
		data:   link.Data,
		aux:    aux,
		model:  model,
		alive:  alive,
		ring:   make([]*event.Event, size),
		tracer: tracer,
	}
	mirror := obs.L("mirror", strconv.Itoa(idx))
	s.enqueued = reg.Counter(famLinkEnqueued, mirror)
	s.sent = reg.Counter(famLinkSent, mirror)
	s.sentBytes = reg.Counter(famLinkWireBytes, mirror)
	s.filtered = reg.Counter(famLinkFiltered, mirror)
	s.dropped = reg.Counter(famLinkDropped, mirror)
	s.depth = reg.Gauge(famLinkDepth, mirror)
	s.stall = reg.DurationCounter(famLinkStall, mirror)
	s.batchEvents = reg.Histogram(famBatchEvents, mirror)
	s.batchBytes = reg.Histogram(famBatchBytes, mirror)
	reg.Func(famLinkDepthMax, func() float64 { return float64(s.depth.Max()) }, mirror)
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue hands a batch to the link, retaining ref (when non-nil) until
// every event of the batch has left the ring — shed, or drained and
// submitted. It never blocks: when the ring is full the oldest queued
// events are shed (and accounted as drops), so a stalled link loses its
// own backlog instead of stalling the sending task. Enqueue after close
// is a no-op and takes no reference.
func (s *linkSender) enqueue(batch []*event.Event, ref event.Ref) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if ref != nil {
		ref.Retain()
	}
	s.groups = append(s.groups, sendGroup{left: len(batch), ref: ref})
	mask := len(s.ring) - 1
	dropped := 0
	var fire []event.Ref
	for _, e := range batch {
		if s.n == len(s.ring) {
			s.ring[s.head] = nil
			s.head = (s.head + 1) & mask
			s.n--
			dropped++
			if r := s.shedOldestLocked(); r != nil {
				fire = append(fire, r)
			}
		}
		s.ring[(s.head+s.n)&mask] = e
		s.n++
	}
	depth := s.n
	s.cond.Signal()
	s.mu.Unlock()

	// A group released by shedding has no event anywhere any more — the
	// drainer removes all ring events and all groups atomically, so a
	// group still in s.groups cannot have drained siblings in flight.
	fireAll(fire)
	s.enqueued.Add(uint64(len(batch)))
	if dropped > 0 {
		s.dropped.Add(uint64(dropped))
	}
	s.depth.Set(int64(depth))
}

// shedOldestLocked accounts one shed ring event against the oldest
// group and returns its ref when the shed was the group's last event.
// Caller holds s.mu.
func (s *linkSender) shedOldestLocked() event.Ref {
	for len(s.groups) > 0 {
		g := &s.groups[0]
		if g.left > 0 {
			g.left--
			if g.left == 0 {
				ref := g.ref
				s.groups = s.groups[1:]
				return ref
			}
			return nil
		}
		s.groups = s.groups[1:]
	}
	return nil
}

// close stops accepting events; the sender goroutine drains what is
// already queued, then exits.
func (s *linkSender) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// run is the link's sender goroutine: it drains everything queued in
// one sweep — a link that fell behind catches up with one large batch
// instead of many small ones — and submits it downstream.
func (s *linkSender) run(wg *sync.WaitGroup) {
	defer wg.Done()
	scratch := make([]*event.Event, 0, DefaultSendBatch)
	rels := make([]event.Ref, 0, 8)
	for {
		s.mu.Lock()
		for s.n == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.n == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		mask := len(s.ring) - 1
		scratch = scratch[:0]
		for s.n > 0 {
			scratch = append(scratch, s.ring[s.head])
			s.ring[s.head] = nil
			s.head = (s.head + 1) & mask
			s.n--
		}
		// The drain takes every ring event and every group in one
		// critical section: after this point no group taken here can be
		// decremented by shedding, so send owns their releases.
		rels = rels[:0]
		for _, g := range s.groups {
			if g.ref != nil {
				rels = append(rels, g.ref)
			}
		}
		s.groups = s.groups[:0]
		s.mu.Unlock()
		s.depth.Set(0)
		s.send(scratch, rels)
	}
}

// send filters, charges, and submits one drained batch. The liveness
// check happens under ioMu so a batch drained while the mirror was
// dead cannot slip onto the wire mid-recovery: either it is dropped
// before the recovery block, or it follows the block entirely (and the
// mirror's arrival watermark discards the stale prefix).
// send owns the drained batch's slab releases (rels): they fire once no
// event of the batch can be referenced downstream any more — after an
// submission returns (receivers retained what they keep), or
// immediately when the batch is dropped or filtered to nothing.
func (s *linkSender) send(batch []*event.Event, rels []event.Ref) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if s.alive != nil && !s.alive(s.idx) {
		fireAll(rels)
		return
	}
	if f := s.link.Filter; f != nil {
		kept := batch[:0]
		for _, e := range batch {
			if f(e) {
				kept = append(kept, e)
			}
		}
		s.filtered.Add(uint64(len(batch) - len(kept)))
		batch = kept
	}
	if len(batch) == 0 {
		fireAll(rels)
		return
	}
	bytes := event.BatchPayloadBytes(batch)
	// The submission charge lands on the auxiliary unit's processor:
	// links contend for its ledger exactly as the per-event path did,
	// but the fixed cost is now paid once per batch.
	s.aux.Charge(s.model.SubmitBatchCost(len(batch), bytes))
	s.batchEvents.Record(time.Duration(len(batch)))
	s.batchBytes.Record(time.Duration(bytes))
	start := time.Now()
	ref := newGroupRef(rels)
	err := s.data.SubmitOwned(batch, ref)
	ref.Release()
	elapsed := time.Since(start)
	s.stall.Add(elapsed)
	s.tracer.Observe(obs.StageLinkSend, elapsed)
	if err == nil {
		s.sent.Add(uint64(len(batch)))
		s.sentBytes.Add(uint64(bytes))
	}
}

// fireAll releases every non-nil ref.
func fireAll(rels []event.Ref) {
	for _, r := range rels {
		if r != nil {
			r.Release()
		}
	}
}

// recoverySend submits a recovery block — the state-snapshot event
// followed by the backup-queue replay — bypassing the outbox ring, the
// liveness gate, and the per-link filter (a recovering mirror needs
// the full unfiltered history to converge byte-for-byte). readmit,
// when non-nil, runs while ioMu is still held, after a successful
// submission: flipping the mirror alive inside the same critical
// section guarantees no regular batch is dropped between the recovery
// block and the first post-recovery drain.
func (s *linkSender) recoverySend(events []*event.Event, readmit func()) error {
	if len(events) == 0 {
		if readmit != nil {
			s.ioMu.Lock()
			readmit()
			s.ioMu.Unlock()
		}
		return nil
	}
	bytes := event.BatchPayloadBytes(events)
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.aux.Charge(s.model.SubmitBatchCost(len(events), bytes))
	start := time.Now()
	// Recovery events are heap-owned: no slab guards them.
	err := s.data.SubmitOwned(events, nil)
	s.stall.Add(time.Since(start))
	if err != nil {
		return err
	}
	s.sent.Add(uint64(len(events)))
	s.sentBytes.Add(uint64(bytes))
	if readmit != nil {
		readmit()
	}
	return nil
}

// stats snapshots the link's counters.
func (s *linkSender) stats() LinkStats {
	return LinkStats{
		Enqueued:  s.enqueued.Value(),
		Sent:      s.sent.Value(),
		SentBytes: s.sentBytes.Value(),
		Filtered:  s.filtered.Value(),
		Dropped:   s.dropped.Value(),
		Depth:     int(s.depth.Value()),
		MaxDepth:  int(s.depth.Max()),
		Stall:     s.stall.Value(),
	}
}

// telemSample snapshots the counters the wire-telemetry sampler
// consumes once per checkpoint round. Unlike stats it *takes* the
// outbox high-water mark: each telemetry window reports its own peak,
// so a single historic burst no longer pins VarOutboxDepth high
// forever.
func (s *linkSender) telemSample() linktelem.Sample {
	return linktelem.Sample{
		Bytes:    s.sentBytes.Value(),
		Events:   s.sent.Value(),
		MaxDepth: int(s.depth.TakeMax()),
		Stall:    s.stall.Value(),
	}
}
