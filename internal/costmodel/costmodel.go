// Package costmodel stands in for the CPU of the paper's testbed
// nodes. The original experiments ran on a cluster of 300 MHz Pentium
// III machines, where per-event business logic, per-mirror event
// resubmission, and per-request state preparation took measurable time
// and competed for each node's processor. This reproduction may run on
// a single modern core, so it models every cluster node as a virtual
// CPU: a FIFO occupancy ledger over wall-clock time. Work charged to a
// node advances that node's busy-until deadline; concurrent nodes'
// deadlines advance independently, so the cluster genuinely
// parallelizes in wall-clock even on one host core, while work on the
// same node queues — exactly the contention the paper measures.
package costmodel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Model describes the CPU charge of the OIS operations.
type Model struct {
	// EventBase is the fixed cost of processing one event through the
	// EDE's business logic.
	EventBase time.Duration
	// EventPerKB is the additional processing cost per KiB of payload.
	EventPerKB time.Duration

	// SerializeBase/SerializePerKB is the once-per-mirrored-event cost
	// of preparing an event for mirroring (resubmission, queue
	// management, copy) regardless of the number of mirrors.
	SerializeBase  time.Duration
	SerializePerKB time.Duration

	// SubmitBase/SubmitPerKB is the per-mirror-site cost of pushing a
	// prepared event onto one outgoing channel.
	SubmitBase  time.Duration
	SubmitPerKB time.Duration

	// RequestBase/RequestPerKB is the cost of computing one client
	// initialization state of a given size.
	RequestBase  time.Duration
	RequestPerKB time.Duration

	// CheckpointBase is the fixed coordinator cost of one checkpoint
	// round; CheckpointPerBacklog is added per event retained in the
	// backup queue at round start (scanning and trimming).
	CheckpointBase       time.Duration
	CheckpointPerBacklog time.Duration

	// ControlCost is charged per control event handled at a site.
	ControlCost time.Duration

	// FrameBase/FramePerEvent price the columnar batch framing of the
	// zero-copy wire path: one fixed charge per frame (header build,
	// offset table, single buffered write) plus a small per-event
	// column-append charge. When both are zero the model predates the
	// columnar codec and FrameBatchCost falls back to
	// SerializeBatchCost, keeping older calibrations unchanged.
	FrameBase     time.Duration
	FramePerEvent time.Duration
}

// Default is calibrated so the experiment harness reproduces the
// paper's curve shapes in hundreds of milliseconds instead of tens of
// seconds: mirroring one site costs ~15-20% of processing (growing
// with event size, Figure 4), each additional mirror costs well under
// 10% (Figure 5), and requests are expensive enough that bursts
// perturb event processing (Figures 6-9).
var Default = Model{
	EventBase:            40 * time.Microsecond,
	EventPerKB:           12 * time.Microsecond,
	SerializeBase:        2500 * time.Nanosecond,
	SerializePerKB:       2500 * time.Nanosecond,
	SubmitBase:           3 * time.Microsecond,
	SubmitPerKB:          150 * time.Nanosecond,
	RequestBase:          33 * time.Microsecond,
	RequestPerKB:         3 * time.Microsecond,
	CheckpointBase:       100 * time.Microsecond,
	CheckpointPerBacklog: 400 * time.Nanosecond,
	ControlCost:          5 * time.Microsecond,
	FrameBase:            2500 * time.Nanosecond,
	FramePerEvent:        300 * time.Nanosecond,
}

// EventCost returns the EDE processing charge for a payload of n bytes.
func (m Model) EventCost(n int) time.Duration {
	return m.EventBase + scale(m.EventPerKB, n)
}

// SerializeCost returns the once-per-event mirroring preparation charge.
func (m Model) SerializeCost(n int) time.Duration {
	return m.SerializeBase + scale(m.SerializePerKB, n)
}

// SubmitCost returns the per-mirror-site submission charge.
func (m Model) SubmitCost(n int) time.Duration {
	return m.SubmitBase + scale(m.SubmitPerKB, n)
}

// SerializeBatchCost returns the mirroring preparation charge for a
// batch of n events totalling bytes payload bytes. Resubmission,
// queue management, and copying remain per-event work, so the base is
// paid n times; the size-proportional term is paid on the batch's
// bytes. The total equals the sum of per-event SerializeCost charges
// but is booked with a single ledger operation.
func (m Model) SerializeBatchCost(n, bytes int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(n)*m.SerializeBase + scale(m.SerializePerKB, bytes)
}

// FrameBatchCost returns the preparation charge for encoding a batch
// of n events totalling bytes payload bytes as one columnar frame.
// The columnar layout replaces the per-event header re-encode with
// cheap column appends, so the per-event term is far below the legacy
// SerializeBase while the byte-proportional term is unchanged. Models
// with no framing calibration (both frame fields zero) fall back to
// SerializeBatchCost so existing test and chaos calibrations keep
// their historical charges.
func (m Model) FrameBatchCost(n, bytes int) time.Duration {
	if n <= 0 {
		return 0
	}
	if m.FrameBase == 0 && m.FramePerEvent == 0 {
		return m.SerializeBatchCost(n, bytes)
	}
	return m.FrameBase + time.Duration(n)*m.FramePerEvent + scale(m.SerializePerKB, bytes)
}

// SubmitBatchCost returns the per-mirror-site charge for submitting a
// batch of n events totalling bytes payload bytes as one framed write
// plus a single flush. The fixed submission cost is paid once per
// batch — the batching win the fan-out pipeline is built around —
// while the size-proportional term still covers every byte moved.
func (m Model) SubmitBatchCost(n, bytes int) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.SubmitBase + scale(m.SubmitPerKB, bytes)
}

// RequestCost returns the charge for serving an init-state request of
// n bytes.
func (m Model) RequestCost(n int) time.Duration {
	return m.RequestBase + scale(m.RequestPerKB, n)
}

// InitStateCost returns the charge for serving one init-state request
// from the epoch-cached snapshot path: the full response of copied
// bytes is booked as request work (the copy out of the cache), and
// only the rebuilt segment bytes — 0 on a warm cache hit — are
// additionally booked as serialization work. This keeps the Figure
// 6/7 virtual-CPU numbers honest: a storm against a quiet state pays
// the request copy per request but the serialization once.
func (m Model) InitStateCost(copied, rebuilt int) time.Duration {
	d := m.RequestCost(copied)
	if rebuilt > 0 {
		d += m.SerializeCost(rebuilt)
	}
	return d
}

// CheckpointCost returns the coordinator charge for one round with the
// given backup-queue backlog.
func (m Model) CheckpointCost(backlog int) time.Duration {
	return m.CheckpointBase + time.Duration(backlog)*m.CheckpointPerBacklog
}

func scale(perKB time.Duration, n int) time.Duration {
	return time.Duration(float64(perKB) * float64(n) / 1024)
}

// CPU is one cluster node's processor: a FIFO occupancy ledger.
// Charges advance the node's busy-until deadline by exactly the
// charged duration; callers are paced with coarse sleeps only when
// the ledger runs ahead of wall clock, so microsecond-scale charges
// stay accurate despite millisecond sleep granularity. A nil *CPU
// spins the real processor instead (useful for standalone units).
type CPU struct {
	mu        sync.Mutex
	busyUntil time.Time
	// busyNanos mirrors busyUntil (UnixNano), published under mu, so a
	// zero-duration charge can see an idle ledger without the lock.
	busyNanos atomic.Int64
}

// Pacing constants: catchUpWindow bounds how much late-running work
// may back-fill (absorbing the host's ~1ms sleep overshoot without
// compounding); sleepSlack is the ledger lead at which callers start
// sleeping. Their difference is the pacing chunk; the slack bounds how
// far a pipeline can race ahead of its node's timeline, which keeps
// queue lengths — the adaptation-monitored variables — honest.
const (
	catchUpWindow = 4 * time.Millisecond
	sleepSlack    = 8 * time.Millisecond
)

// idleNow reports the completion instant of a charge that books nothing
// on a ledger that is not ahead of the wall clock: such work completes
// now — there is nothing to queue behind and nothing to back-fill. It
// takes no lock, so a node running the zero model pays one clock read
// per call (per run, through ChargeRun). ok is false when d books work
// or the ledger is ahead.
func (c *CPU) idleNow(d time.Duration) (now time.Time, ok bool) {
	if d > 0 {
		return time.Time{}, false
	}
	now = time.Now()
	return now, c.busyNanos.Load() <= now.UnixNano()
}

// bookRun is the ledger operation of ChargeRun at wall-clock instant
// now; caller holds c.mu. It is kept free of clock reads and sleeps so
// tests can replay it against the one-charge-at-a-time rule.
func (c *CPU) bookRun(now time.Time, costs []time.Duration) (first time.Time, n int) {
	if floor := now.Add(-catchUpWindow); c.busyUntil.Before(floor) {
		c.busyUntil = floor
	}
	c.busyUntil = c.busyUntil.Add(max(costs[0], 0))
	first = c.busyUntil
	limit := now.Add(sleepSlack)
	for n = 1; n < len(costs); n++ {
		if d := costs[n]; d > 0 {
			next := c.busyUntil.Add(d)
			if next.After(limit) {
				break
			}
			c.busyUntil = next
		}
	}
	c.busyNanos.Store(c.busyUntil.UnixNano())
	return first, n
}

// Charge books d of work on the CPU and returns the instant the work
// completes in the node's timeline. The caller is delayed only when
// the node has accumulated a significant backlog.
func (c *CPU) Charge(d time.Duration) time.Time {
	one := [1]time.Duration{d}
	first, _ := c.ChargeRun(one[:])
	return first
}

// ChargeRun books a run of consecutive charges in one ledger
// operation. It returns the completion instant of costs[0] and the
// number n >= 1 of charges booked; charge i < n completes at first
// plus costs[1..i].
//
// When the run starts with work (or finds the ledger ahead of the wall
// clock), the instants, the ledger and the caller's pacing are those of
// n Charge calls: the caller is paced on costs[0] exactly as Charge
// paces it, and booking stops before the first later charge that would
// itself have been paced, so the caller applies what was booked and
// comes back for the rest.
//
// When the run starts with zero-cost charges on an idle ledger, the
// whole leading run of them is booked with one clock read: each
// completes at that instant, the same first-plus-costs rule with costs
// of zero. n is that prefix's length, so a mixed run stops at its first
// positive cost. Charged one by one they would read the clock once
// each, at instants nanoseconds apart; the ledger is untouched either
// way. A nil CPU likewise spins costs[0] and completes the zero-cost
// charges after it at the same instant.
func (c *CPU) ChargeRun(costs []time.Duration) (first time.Time, n int) {
	if c == nil {
		Spin(costs[0])
		return time.Now(), zeroTail(costs)
	}
	if now, ok := c.idleNow(costs[0]); ok {
		return now, zeroTail(costs)
	}
	c.mu.Lock()
	now := time.Now()
	first, n = c.bookRun(now, costs)
	c.mu.Unlock()

	if wait := first.Sub(now); wait > sleepSlack {
		time.Sleep(wait - catchUpWindow)
	}
	return first, n
}

// zeroTail returns 1 plus the number of zero-cost charges right after
// costs[0]: the charges that complete at the instant costs[0] does.
func zeroTail(costs []time.Duration) int {
	n := 1
	for n < len(costs) && costs[n] <= 0 {
		n++
	}
	return n
}

// ChargeAsync books d of work on the CPU without pacing the caller.
// Control-plane handlers use it: their charges must occupy the node's
// timeline, but blocking a protocol state machine for milliseconds
// behind a saturated ledger would serialize rounds that the real
// system runs as cheap background work.
func (c *CPU) ChargeAsync(d time.Duration) time.Time {
	if c == nil {
		return time.Now()
	}
	if now, ok := c.idleNow(d); ok {
		return now
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	one := [1]time.Duration{d}
	release, _ := c.bookRun(time.Now(), one[:])
	return release
}

// BusyUntil returns the node's current busy-until deadline.
func (c *CPU) BusyUntil() time.Time {
	if c == nil {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busyUntil
}

// WaitIdle blocks until every CPU's booked work has completed in wall
// clock, and returns the latest completion instant. Experiment
// harnesses call it after draining queues so "total execution time"
// includes the booked processing.
func WaitIdle(cpus ...*CPU) time.Time {
	var latest time.Time
	for _, c := range cpus {
		if bu := c.BusyUntil(); bu.After(latest) {
			latest = bu
		}
	}
	if wait := time.Until(latest); wait > 0 {
		time.Sleep(wait)
	}
	if latest.IsZero() {
		return time.Now()
	}
	return latest
}

// spinSink prevents the spin loop from being optimized away.
var spinSink atomic.Uint64

// Spin burns real CPU for approximately d. Unlike time.Sleep it keeps
// the processor busy; used when no virtual CPU is attached.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	var acc uint64
	for {
		for i := 0; i < 64; i++ {
			acc = acc*2654435761 + 1
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	spinSink.Store(acc)
}
