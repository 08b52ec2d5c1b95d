// Package faultinject is a seeded, deterministic fault plane for the
// mirroring framework's link layer. It wraps any outbound link — the
// in-process channel links, echo.SendLink over TCP, or the direct
// handler links the test rigs use — with composable message faults
// (drop, duplicate, reorder, payload corruption) plus a runtime
// partition switch, all driven by a single seed so every run is
// replayable: the fault decision for the N-th submission on a link is
// a pure function of (seed, link name, N).
//
// The plane sits between a site's sending path and the transport, the
// same place simnet's bandwidth/latency shaping lives, but below the
// framework's reliability assumptions: the paper's protocol tolerates
// arbitrary loss and reordering of *control* traffic (no timeouts, no
// aborts, later commits subsume earlier ones) while the *data* path
// assumes ordered exactly-once delivery between central and each live
// mirror. Chaos schedules therefore apply probabilistic faults to
// control links and whole-link faults (partition, crash-restart) to
// data links; see internal/cluster's chaos harness.
package faultinject

import (
	"math/rand"
	"sync"

	"adaptmirror/internal/core"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
)

// Faults are per-submission fault probabilities for one link. Classes
// compose: each submission draws for every class independently, in a
// fixed order (drop, reorder, duplicate, corrupt), so a link can be
// simultaneously lossy and scrambled. Zero value = fault-free.
type Faults struct {
	// Drop is the probability a submission is silently discarded.
	Drop float64
	// Duplicate is the probability a submission is delivered twice.
	Duplicate float64
	// Reorder is the probability a submission is held back one slot
	// and delivered after the following submission (pairwise swap —
	// the minimal reordering a non-FIFO network exhibits).
	Reorder float64
	// Corrupt is the probability a submission's payload has one byte
	// bit-flipped (a cloned copy is corrupted; the caller's event is
	// never mutated). Events without payload pass through unharmed.
	Corrupt float64
}

// Plane owns the wrapped links of one cluster and derives each link's
// deterministic decision stream from the plane seed and the link name.
type Plane struct {
	seed int64
	reg  *obs.Registry

	mu    sync.Mutex
	links map[string]*Link
}

// famInjected counts injected faults, labeled link="<name>" and
// class="drop|duplicate|reorder|corrupt|partition".
var famInjected = obs.Declare("fault_injected_total", obs.KindCounter, "Faults injected by the fault plane, by link and class.")

// NewPlane returns a fault plane. reg, when non-nil, receives the
// fault_injected_total counters.
func NewPlane(seed int64, reg *obs.Registry) *Plane {
	return &Plane{seed: seed, reg: reg, links: make(map[string]*Link)}
}

// Seed returns the plane's seed (printed by failing chaos runs for
// one-command replay).
func (p *Plane) Seed() int64 { return p.seed }

// fnv64a hashes a link name for seed derivation.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 finalizes the combined seed so structurally similar link
// names still get uncorrelated decision streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Wrap returns a fault-injecting control or client link in front of
// next. The name keys the link's decision stream (and its metrics
// labels), so wrapping the same topology with the same plane seed
// reproduces the same faults regardless of goroutine interleaving
// elsewhere. Wrapping the same name twice returns the same Link.
func (p *Plane) Wrap(name string, next core.Sender, f Faults) *Link {
	return p.wrap(name, next, nil, f)
}

// WrapData is Wrap for a mirror data link: the returned Link is driven
// through SubmitOwned and forwards whole batches to next.
func (p *Plane) WrapData(name string, next core.DataSender, f Faults) *Link {
	return p.wrap(name, nil, next, f)
}

func (p *Plane) wrap(name string, next core.Sender, data core.DataSender, f Faults) *Link {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.links[name]; ok {
		return l
	}
	l := &Link{
		name:   name,
		next:   next,
		data:   data,
		faults: f,
		rng:    rand.New(rand.NewSource(int64(splitmix64(uint64(p.seed) ^ fnv64a(name))))),
	}
	link := obs.L("link", name)
	l.dropped = p.reg.Counter(famInjected, link, obs.L("class", "drop"))
	l.duplicated = p.reg.Counter(famInjected, link, obs.L("class", "duplicate"))
	l.reordered = p.reg.Counter(famInjected, link, obs.L("class", "reorder"))
	l.corrupted = p.reg.Counter(famInjected, link, obs.L("class", "corrupt"))
	l.partitioned = p.reg.Counter(famInjected, link, obs.L("class", "partition"))
	p.links[name] = l
	return l
}

// Link reports the wrapped link registered under name, or nil.
func (p *Plane) Link(name string) *Link {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.links[name]
}

// Link is one fault-injecting wrapper. Fault decisions are drawn under
// the link mutex in submission order, so the decision stream is
// deterministic for a deterministic submission sequence (the central
// sending path is single-writer per link, which gives exactly that).
// Exactly one of next (Wrap: per-event Submit) and data (WrapData:
// SubmitOwned) is set.
type Link struct {
	name   string
	next   core.Sender
	data   core.DataSender
	faults Faults

	mu   sync.Mutex
	rng  *rand.Rand
	down bool
	held *event.Event // one-slot reorder holdback

	dropped     *metrics.Counter
	duplicated  *metrics.Counter
	reordered   *metrics.Counter
	corrupted   *metrics.Counter
	partitioned *metrics.Counter
}

// Name returns the link's registered name.
func (l *Link) Name() string { return l.name }

// Injected reports the total fault count across every class this link
// has injected so far (drops while partitioned included).
func (l *Link) Injected() uint64 {
	return l.dropped.Value() + l.duplicated.Value() + l.reordered.Value() +
		l.corrupted.Value() + l.partitioned.Value()
}

// SetDown opens (true) or heals (false) a partition: while down, every
// submission is swallowed — the transport analogue of a stalled or
// severed connection, from the sender's perspective a silent loss.
// Healing does not replay; whatever was submitted while down is gone,
// exactly like a crashed mirror's volatile queues.
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	l.down = down
	if down {
		l.held = nil
	}
	l.mu.Unlock()
}

// Down reports the partition state.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// plan is the decision for one submission: the events to put on the
// wire, in order (nil = swallowed).
func (l *Link) plan(e *event.Event, out []*event.Event) []*event.Event {
	if l.down {
		l.partitioned.Add(1)
		return out
	}
	f := l.faults
	// Fixed draw order keeps the stream deterministic even when some
	// probabilities are zero: every class always consumes its draw.
	dropped := l.rng.Float64() < f.Drop
	reorder := l.rng.Float64() < f.Reorder
	duplicate := l.rng.Float64() < f.Duplicate
	corrupt := l.rng.Float64() < f.Corrupt
	if dropped {
		l.dropped.Add(1)
		return out
	}
	if corrupt && len(e.Payload) > 0 {
		c := e.Clone()
		// Flip one bit of one payload byte. Framing and timestamps are
		// left alone — wire-level corruption of those is the codec
		// fuzzers' domain; the plane models application-payload damage
		// the codec cannot detect.
		i := l.rng.Intn(len(c.Payload))
		c.Payload[i] ^= 1 << uint(l.rng.Intn(8))
		l.corrupted.Add(1)
		e = c
	}
	emit := func(e *event.Event) {
		out = append(out, e)
		if duplicate {
			l.duplicated.Add(1)
			out = append(out, e)
			duplicate = false
		}
	}
	if held := l.held; held != nil {
		l.held = nil
		if reorder {
			// Two consecutive holds: deliver the new event first, keep
			// the swap depth at one.
			l.reordered.Add(1)
			emit(e)
			out = append(out, held)
			return out
		}
		emit(e)
		out = append(out, held)
		return out
	}
	if reorder {
		// A held event's duplicate draw is discarded: the swap is the
		// observable fault for this submission, and keeping the
		// holdback to a single event keeps planning deterministic.
		l.reordered.Add(1)
		l.held = e
		return out
	}
	emit(e)
	return out
}

// Submit implements core.Sender with the link's fault schedule applied.
func (l *Link) Submit(e *event.Event) error {
	l.mu.Lock()
	out := l.plan(e, nil)
	l.mu.Unlock()
	for _, e := range out {
		if err := l.next.Submit(e); err != nil {
			return err
		}
	}
	return nil
}

// SubmitOwned implements core.DataSender: per-event decisions in
// submission order, then one downstream submission of the survivors
// under the caller's reference. A view a reorder fault holds back past
// this call is cloned off its slab, so the link never pins one.
func (l *Link) SubmitOwned(events []*event.Event, ref event.Ref) error {
	l.mu.Lock()
	heldBefore := l.held
	out := make([]*event.Event, 0, len(events)+1)
	for _, e := range events {
		out = l.plan(e, out)
	}
	if ref != nil && l.held != nil && l.held != heldBefore {
		l.held = l.held.Clone()
	}
	l.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	return l.data.SubmitOwned(out, ref)
}

// Flush releases a pending reorder holdback (end of a schedule, before
// drain barriers). Without it the last submission of a run could stay
// held forever.
func (l *Link) Flush() error {
	l.mu.Lock()
	held := l.held
	l.held = nil
	l.mu.Unlock()
	if held == nil {
		return nil
	}
	if l.data != nil {
		return l.data.SubmitOwned([]*event.Event{held}, nil)
	}
	return l.next.Submit(held)
}
