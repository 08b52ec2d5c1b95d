// Package linktelem derives per-link wire telemetry at checkpoint-round
// granularity. The fan-out senders expose cumulative counters (payload
// bytes shipped, events sent, stall time) and windowed outbox
// high-water marks; the central site feeds them into a Sampler once per
// checkpoint round, and the Sampler turns the deltas into EWMA
// per-round rates plus an estimated link bandwidth. The smoothed values
// back the link_wire_* gauge families and the VarWireBytes /
// VarOutboxDepth monitored variables that let the adaptation controller
// see bandwidth pressure (paper Section 3.2.2 generalized to network
// telemetry, cf. RDMSim).
//
// The package deliberately does not import internal/core: core's
// fan-out is a producer of Samples, so the dependency points the other
// way.
package linktelem

import (
	"strconv"
	"sync"
	"time"

	"adaptmirror/internal/obs"
)

// alpha is the EWMA smoothing factor applied to per-round deltas. 0.5
// converges within a handful of rounds while still riding
// out single-round bursts (a checkpoint round is the natural control
// interval, so heavier smoothing would delay engage decisions).
const alpha = 0.5

// Sample is one cumulative reading from a link at a telemetry tick.
// Bytes, Events and Stall are monotonically increasing counters since
// link creation; MaxDepth is the outbox high-water mark accumulated
// since the previous tick (the caller resets the windowed mark when it
// reads it).
type Sample struct {
	Bytes    uint64
	Events   uint64
	MaxDepth int
	Stall    time.Duration
}

// Link is the smoothed per-link view the Sampler maintains.
type Link struct {
	// BytesPerRound and EventsPerRound are EWMAs of the per-round
	// deltas of the cumulative counters.
	BytesPerRound  float64
	EventsPerRound float64
	// MaxDepth is the outbox high-water mark observed in the last
	// telemetry window.
	MaxDepth int
	// StallPerRound is the EWMA of per-round stall time.
	StallPerRound time.Duration
	// BandwidthBps estimates the link's achieved payload bandwidth:
	// EWMA of (delta bytes / elapsed wall time) across ticks.
	BandwidthBps float64
}

// Sampler accumulates per-link telemetry across ticks. All methods are
// safe for concurrent use: the central checkpoint loop ticks it while
// metric scrapes and status snapshots read it.
type Sampler struct {
	mu       sync.Mutex
	links    []Link
	prev     []Sample
	seeded   bool // a Tick has seeded the EWMAs
	lastTick time.Time
}

// New returns a Sampler tracking n links.
func New(n int) *Sampler {
	return &Sampler{links: make([]Link, n), prev: make([]Sample, n)}
}

func ewma(old, sample float64, first bool) float64 {
	if first {
		return sample
	}
	return old + alpha*(sample-old)
}

// Tick ingests one cumulative Sample per link, taken at instant now —
// once per checkpoint round at the central site. The first tick seeds
// the EWMAs with the raw first-window deltas.
func (s *Sampler) Tick(now time.Time, samples []Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := !s.seeded
	elapsed := 0.0
	if !s.lastTick.IsZero() {
		// A primed sampler has a baseline instant but no rounds yet:
		// its seeding tick still measures a real wall-clock window.
		elapsed = now.Sub(s.lastTick).Seconds()
	}
	for i := range samples {
		if i >= len(s.links) {
			break
		}
		cur, prev := samples[i], s.prev[i]
		l := &s.links[i]
		dBytes := float64(cur.Bytes - prev.Bytes)
		dEvents := float64(cur.Events - prev.Events)
		dStall := float64(cur.Stall - prev.Stall)
		l.BytesPerRound = ewma(l.BytesPerRound, dBytes, first)
		l.EventsPerRound = ewma(l.EventsPerRound, dEvents, first)
		l.StallPerRound = time.Duration(ewma(float64(l.StallPerRound), dStall, first))
		if elapsed > 0 {
			l.BandwidthBps = ewma(l.BandwidthBps, dBytes/elapsed, l.BandwidthBps == 0)
		}
		l.MaxDepth = cur.MaxDepth
		s.prev[i] = cur
	}
	s.seeded = true
	s.lastTick = now
}

// Prime installs baseline cumulative readings without consuming a
// telemetry window. A promoted central inherits the per-link counters
// of the old one (the metrics registry hands the same cumulative
// series to whoever re-registers them), so a fresh Sampler's first
// Tick would otherwise read the entire historic total as one round's
// delta and poison the EWMAs — and, through VarWireBytes, the
// adaptation controller. After Prime the next Tick still seeds the
// EWMAs, but from the true first post-promotion window. Samples past
// the tracked link count are ignored.
func (s *Sampler) Prime(now time.Time, samples []Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(s.prev, samples)
	s.lastTick = now
}

// Links returns a snapshot of the per-link smoothed telemetry.
func (s *Sampler) Links() []Link {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Link, len(s.links))
	copy(out, s.links)
	return out
}

// MaxBytesPerRound returns the busiest link's EWMA bytes/round,
// rounded down — the value of the VarWireBytes monitored variable.
func (s *Sampler) MaxBytesPerRound() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max float64
	for i := range s.links {
		if s.links[i].BytesPerRound > max {
			max = s.links[i].BytesPerRound
		}
	}
	return int(max)
}

// MaxOutboxDepth returns the deepest windowed outbox high-water mark
// across links — the value of the VarOutboxDepth monitored variable.
func (s *Sampler) MaxOutboxDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int
	for i := range s.links {
		if s.links[i].MaxDepth > max {
			max = s.links[i].MaxDepth
		}
	}
	return max
}

// The smoothed per-link families, labeled mirror="<index>".
var (
	famBytesPerRound  = obs.Declare("link_wire_bytes_per_round", obs.KindGauge, "EWMA of wire payload bytes shipped per checkpoint round, per mirror link.")
	famEventsPerRound = obs.Declare("link_wire_events_per_round", obs.KindGauge, "EWMA of events shipped per checkpoint round, per mirror link.")
	famStallPerRound  = obs.Declare("link_stall_seconds_per_round", obs.KindGauge, "EWMA of sender stall time per checkpoint round, per mirror link.")
	famBandwidth      = obs.Declare("link_est_bandwidth_bytes_per_second", obs.KindGauge, "Estimated achieved payload bandwidth per mirror link (EWMA of bytes/wall-second between telemetry ticks).")
)

// Register exports the smoothed per-link telemetry through r (nil-safe
// like the registry itself), one series per link labelled by mirror
// index.
func (s *Sampler) Register(r *obs.Registry) {
	for i := range s.links {
		l := obs.L("mirror", strconv.Itoa(i))
		export := func(f *obs.Family, get func(*Link) float64) {
			r.Func(f, func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return get(&s.links[i])
			}, l)
		}
		export(famBytesPerRound, func(l *Link) float64 { return l.BytesPerRound })
		export(famEventsPerRound, func(l *Link) float64 { return l.EventsPerRound })
		export(famStallPerRound, func(l *Link) float64 { return l.StallPerRound.Seconds() })
		export(famBandwidth, func(l *Link) float64 { return l.BandwidthBps })
	}
}
