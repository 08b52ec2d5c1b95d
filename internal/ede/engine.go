package ede

import (
	"math"
	"sync"
	"time"

	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/statedelta"
	"adaptmirror/internal/vclock"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Rule is one unit of business logic: it inspects an incoming event
// against the current state (already updated by earlier rules) and may
// derive new events. Rules run under the write lock of the shard
// owning the event's flight and must not block; they may only touch
// state keyed by the event's flight (all the OIS rules are per-flight,
// which is what makes the flight table lock-stripable).
type Rule interface {
	// Name identifies the rule in diagnostics.
	Name() string
	// Apply processes e and returns any derived events.
	Apply(st *State, e *event.Event) []*event.Event
}

// Config parameterizes an Engine.
type Config struct {
	// Model is the CPU cost model charged per event; zero disables
	// cost charging (useful in unit tests).
	Model costmodel.Model
	// CPU is the virtual processor of the node hosting this engine;
	// nil spins the real CPU for charges instead.
	CPU *costmodel.CPU
	// Rules is the business logic; nil installs DefaultRules.
	Rules []Rule
	// StatePadding inflates per-flight snapshot size.
	StatePadding int
	// Shards is the flight-table lock-stripe count, rounded up to a
	// power of two (0 uses ede.DefaultShards).
	Shards int
}

// Engine applies business rules to incoming events, maintains
// operational state, and reports the highest event timestamp it has
// processed (which the checkpoint protocol's main-unit participant
// replies with).
type Engine struct {
	model costmodel.Model
	cpu   *costmodel.CPU
	rules []Rule
	state *State

	mu            sync.Mutex
	lastProcessed vclock.VC
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	return &Engine{
		model: cfg.Model,
		cpu:   cfg.CPU,
		rules: rules,
		state: NewStateSharded(cfg.StatePadding, cfg.Shards),
	}
}

// State exposes the engine's operational state.
func (en *Engine) State() *State { return en.state }

// chargeChunk bounds how many events' costs ProcessRun prices and books
// at a time; the scratch lives on the caller's stack, so the engine
// keeps no per-run state and stays safe for concurrent callers.
const chargeChunk = 64

// Process applies one event: ProcessRun for a run of one. It returns
// the derived events (possibly none) plus the instant the processing
// completes in the node's timeline (the emission time used for
// update-delay measurement).
func (en *Engine) Process(e *event.Event) (derived []*event.Event, done time.Time) {
	one := [1]*event.Event{e}
	en.ProcessRun(one[:], func(_ int, d []*event.Event, at time.Time) { derived, done = d, at })
	return derived, done
}

// ProcessRun applies a run of events in order. Each event runs through
// every rule and is charged its CPU cost (coalesced events are charged
// once but counted by weight); the moment run[i] has been applied —
// before run[i+1] is touched — emit is called with i, the events it
// derived, and the instant its processing completes in the node's
// timeline. The run's cost is booked in as few ledger operations as the
// one-event-at-a-time pacing allows (costmodel.CPU.ChargeRun), with
// every completion instant the one a Process call per event would have
// returned (a stretch of zero-cost events on an idle ledger shares one
// clock read instead of taking one each); the progress watermark still
// advances per event, so
// checkpoint replies and replica-freshness readers see each event as
// soon as it is applied. As with Process, run[i] must not be read once
// emit(i) is running: its timestamp is in the watermark by then and a
// checkpoint commit may recycle the slab it borrows from.
func (en *Engine) ProcessRun(run []*event.Event, emit func(i int, derived []*event.Event, done time.Time)) {
	var costs [chargeChunk]time.Duration
	for base := 0; base < len(run); base += chargeChunk {
		chunk := run[base:min(base+chargeChunk, len(run))]
		for i, e := range chunk {
			costs[i] = en.model.EventCost(len(e.Payload))
		}
		for i := 0; i < len(chunk); {
			done, n := en.cpu.ChargeRun(costs[i:len(chunk)])
			for end := i + n; ; done = done.Add(costs[i]) {
				emit(base+i, en.apply(chunk[i]), done)
				if i++; i == end {
					break
				}
			}
		}
	}
}

// apply runs e through the rules (or installs the recovery transfer it
// carries) and folds its timestamp into the progress watermark.
func (en *Engine) apply(e *event.Event) []*event.Event {
	// Recovery snapshots replace the whole state rather than passing
	// through the rules: the payload is a serialized snapshot and the
	// VT is its consistency cut. Rules and the processed counter are
	// skipped — the snapshot's events were already counted where the
	// snapshot was built.
	if e.Type == event.TypeRecoveryState {
		if len(e.Payload) > 0 {
			if err := en.state.Install(e.Payload); err != nil {
				return nil
			}
		}
		if e.VT != nil {
			en.mu.Lock()
			en.lastProcessed = en.lastProcessed.MergeInto(e.VT)
			en.mu.Unlock()
		}
		// A warm-standby mirror journals its own mutations so it can
		// serve deltas after promotion; an installed snapshot replaces
		// history the journal never saw, so coverage restarts here.
		en.state.RebaseJournal(e.VT)
		return nil
	}

	// Recovery deltas are the incremental form: the payload holds
	// absolute statedelta records, at the event's VT, for exactly the
	// flights that mutated past the rejoiner's committed cut. Like a
	// full snapshot they bypass the rules and the processed counter;
	// unlike one they leave every uncarried flight alone.
	if e.Type == event.TypeRecoveryDelta {
		if len(e.Payload) > 0 {
			if err := en.state.ApplyDeltaAbsolute(e.Payload); err != nil {
				return nil
			}
		}
		if e.VT != nil {
			en.mu.Lock()
			en.lastProcessed = en.lastProcessed.MergeInto(e.VT)
			en.mu.Unlock()
		}
		// Same as the snapshot path: overwritten flights carry no
		// journal entries for the span the delta covered.
		en.state.RebaseJournal(e.VT)
		return nil
	}

	// Lock only the shard owning the event's flight: applies to other
	// flights, point reads, and snapshot rebuilds of other shards all
	// proceed concurrently.
	sh := en.state.shardOf(e.Flight)
	sh.mu.Lock()
	var derived []*event.Event
	for _, r := range en.rules {
		if out := r.Apply(en.state, e); len(out) > 0 {
			derived = append(derived, out...)
		}
	}
	if en.state.journal.on.Load() && e.VT != nil {
		en.state.journalNote(sh, e.Flight, e.VT.Sum())
	}
	sh.epoch.Add(1)
	sh.mu.Unlock()
	en.state.processed.Add(uint64(e.Weight()))

	if e.VT != nil {
		// In-place merge: the watermark owns its backing (LastProcessed
		// hands out clones), so steady-state processing allocates
		// nothing here.
		en.mu.Lock()
		en.lastProcessed = en.lastProcessed.MergeInto(e.VT)
		en.mu.Unlock()
	}
	return derived
}

// LastProcessed returns the highest event timestamp processed so far.
func (en *Engine) LastProcessed() vclock.VC {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.lastProcessed.Clone()
}

// ServeInitState serves an initialization state for a thin client
// from the epoch-cached snapshot, charging the request's CPU cost.
// This is the expensive operation whose bursts the mirroring
// framework offloads; the cache turns a storm of such requests into
// one rebuild plus per-request handouts, and the cost charge follows
// the paper's model — the response bytes are booked as request work,
// freshly rebuilt segment bytes as serialization work
// (costmodel.Model.InitStateCost).
func (en *Engine) ServeInitState() Snapshot {
	snap, rebuilt := en.state.CachedSnapshot()
	en.cpu.Charge(en.model.InitStateCost(snap.Len(), rebuilt))
	return snap
}

// DefaultRules returns the standard OIS rule set: position tracking,
// status lifecycle, boarding completion, arrival derivation, and
// field-delta application (for sites mirrored under the field-delta
// regime).
func DefaultRules() []Rule {
	return []Rule{PositionRule{}, StatusRule{}, BoardingRule{}, ArrivalRule{}, DeltaRule{}}
}

// DeltaRule applies TypeStateDelta events: framed per-flight field
// deltas (internal/statedelta) the central sending task emits in
// place of raw data events when the field-delta mirroring regime is
// installed. Each masked field is applied with exactly the semantics
// the corresponding full-event rule would have used — positions
// overwrite and bump the weighted update counter, statuses advance
// monotonically and derive arrival at the gate, boardings accumulate
// by weight and derive all-boarded — so a replica fed deltas
// converges byte-for-byte with one fed the raw events. Records for
// flights other than the event's are skipped: the rule runs under the
// event's flight's shard lock only.
type DeltaRule struct{}

// Name implements Rule.
func (DeltaRule) Name() string { return "state-delta" }

// Apply implements Rule.
func (DeltaRule) Apply(st *State, e *event.Event) []*event.Event {
	if e.Type != event.TypeStateDelta {
		return nil
	}
	var d statedelta.Decoder
	if d.Reset(e.Payload) != nil {
		return nil
	}
	var derived []*event.Event
	var r statedelta.Record
	for d.Next(&r) {
		if r.Flight != e.Flight {
			continue
		}
		fs := st.flight(r.Flight)
		if r.Mask&statedelta.MaskPosition != 0 {
			fs.Lat, fs.Lon, fs.Alt = r.Lat, r.Lon, r.Alt
		}
		if r.Mask&statedelta.MaskCounters != 0 {
			fs.PositionUpdates += uint64(r.Weight)
		}
		if r.Mask&statedelta.MaskStatus != 0 {
			// StatusRule then ArrivalRule, in rule order.
			status := event.Status(r.Status)
			if status > fs.Status {
				fs.Status = status
			}
			if status == event.StatusAtGate && !fs.Arrived {
				fs.Arrived = true
				fs.Status = event.StatusArrived
				derived = append(derived, &event.Event{
					Type:      event.TypeFlightArrived,
					Flight:    r.Flight,
					Stream:    e.Stream,
					Seq:       e.Seq,
					Status:    event.StatusArrived,
					Coalesced: 1,
					VT:        e.VT.Clone(),
					Ingress:   e.Ingress,
				})
			}
		}
		if r.Mask&statedelta.MaskPax != 0 {
			if r.PaxExpected > 0 && fs.PaxExpected == 0 {
				fs.PaxExpected = r.PaxExpected
			}
			fs.PaxBoarded += r.Weight
			if !fs.AllBoarded && fs.PaxExpected > 0 && fs.PaxBoarded >= fs.PaxExpected {
				fs.AllBoarded = true
				derived = append(derived, &event.Event{
					Type:      event.TypeAllBoarded,
					Flight:    r.Flight,
					Stream:    e.Stream,
					Seq:       e.Seq,
					Coalesced: 1,
					VT:        e.VT.Clone(),
					Ingress:   e.Ingress,
				})
			}
		}
	}
	return derived
}

// PositionRule applies FAA position reports to flight state.
type PositionRule struct{}

// Name implements Rule.
func (PositionRule) Name() string { return "position" }

// Apply implements Rule.
func (PositionRule) Apply(st *State, e *event.Event) []*event.Event {
	if e.Type != event.TypeFAAPosition {
		return nil
	}
	fs := st.flight(e.Flight)
	if lat, lon, alt, ok := e.Position(); ok {
		fs.Lat, fs.Lon, fs.Alt = lat, lon, alt
	}
	fs.PositionUpdates += uint64(e.Weight())
	return nil
}

// StatusRule advances a flight's lifecycle from Delta status events.
// Stale (earlier-phase) transitions are ignored, so replaying a
// filtered event stream converges to the same state.
type StatusRule struct{}

// Name implements Rule.
func (StatusRule) Name() string { return "status" }

// Apply implements Rule.
func (StatusRule) Apply(st *State, e *event.Event) []*event.Event {
	if e.Type != event.TypeDeltaStatus && e.Type != event.TypeFlightArrived {
		return nil
	}
	fs := st.flight(e.Flight)
	status := e.Status
	if e.Type == event.TypeFlightArrived {
		status = event.StatusArrived
	}
	if status > fs.Status {
		fs.Status = status
	}
	return nil
}

// BoardingRule counts gate-reader boardings and derives AllBoarded
// when the expected count is reached. The expected passenger count
// travels in the first 4 payload bytes of gate-reader events.
type BoardingRule struct{}

// Name implements Rule.
func (BoardingRule) Name() string { return "boarding" }

// Apply implements Rule.
func (BoardingRule) Apply(st *State, e *event.Event) []*event.Event {
	if e.Type != event.TypeGateReader {
		return nil
	}
	fs := st.flight(e.Flight)
	if exp := gateExpected(e); exp > 0 && fs.PaxExpected == 0 {
		fs.PaxExpected = exp
	}
	fs.PaxBoarded += e.Weight()
	if !fs.AllBoarded && fs.PaxExpected > 0 && fs.PaxBoarded >= fs.PaxExpected {
		fs.AllBoarded = true
		return []*event.Event{{
			Type:      event.TypeAllBoarded,
			Flight:    e.Flight,
			Stream:    e.Stream,
			Seq:       e.Seq,
			Coalesced: 1,
			VT:        e.VT.Clone(),
			Ingress:   e.Ingress,
		}}
	}
	return nil
}

func gateExpected(e *event.Event) uint32 {
	if len(e.Payload) < 4 {
		return 0
	}
	return uint32(e.Payload[0]) | uint32(e.Payload[1])<<8 |
		uint32(e.Payload[2])<<16 | uint32(e.Payload[3])<<24
}

// ArrivalRule derives the 'flight arrived' complex event once a flight
// has reached the gate (the landed → at-runway → at-gate sequence the
// paper collapses).
type ArrivalRule struct{}

// Name implements Rule.
func (ArrivalRule) Name() string { return "arrival" }

// Apply implements Rule.
func (ArrivalRule) Apply(st *State, e *event.Event) []*event.Event {
	if e.Type != event.TypeDeltaStatus || e.Status != event.StatusAtGate {
		return nil
	}
	fs := st.flight(e.Flight)
	if fs.Arrived {
		return nil
	}
	fs.Arrived = true
	fs.Status = event.StatusArrived
	return []*event.Event{{
		Type:      event.TypeFlightArrived,
		Flight:    e.Flight,
		Stream:    e.Stream,
		Seq:       e.Seq,
		Status:    event.StatusArrived,
		Coalesced: 1,
		VT:        e.VT.Clone(),
		Ingress:   e.Ingress,
	}}
}
