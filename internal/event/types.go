// Package event defines the application-level update events flowing
// through the Operational Information System, the control events used by
// the mirroring framework, and a compact binary codec for both.
//
// Two kinds of data streams exist in the OIS the paper models (Section
// 3.3): FAA flight-position updates and Delta internal flight-status
// updates (landed, taxiing, at gate, passenger and baggage information).
// Control events (CHKPT, CHKPT_REP, COMMIT, ADAPT) travel on separate
// control channels and drive checkpointing and runtime adaptation.
package event

import "fmt"

// Type identifies the kind of an event. Data types and control types
// share one space so a single codec handles both channels.
type Type uint16

// Data event types.
const (
	TypeInvalid Type = iota

	// TypeFAAPosition is a flight position report derived from FAA
	// radar data: high-rate, overwritable (a later position for the
	// same flight supersedes earlier ones).
	TypeFAAPosition

	// TypeDeltaStatus carries a flight lifecycle status change from
	// Delta's internal systems (see Status).
	TypeDeltaStatus

	// TypeGateReader is raised by an airport gate reader when a
	// passenger boards.
	TypeGateReader

	// TypeCrewUpdate reports a change in crew disposition.
	TypeCrewUpdate

	// TypeBaggage reports a baggage-handling update.
	TypeBaggage

	// TypeWeather carries weather-tracking data; inclement-weather
	// operation increases its rate and precision (paper Section 1,
	// Case 2).
	TypeWeather
)

// Derived event types produced by the Event Derivation Engine or by the
// mirroring layer itself.
const (
	// TypeAllBoarded is derived by the EDE when gate-reader events
	// show every passenger of a flight has boarded.
	TypeAllBoarded Type = iota + 64

	// TypeFlightArrived is the complex event collapsing the
	// 'flight landed' + 'flight at runway' + 'flight at gate'
	// sequence (paper Section 3.2.1).
	TypeFlightArrived

	// TypeCoalesced wraps a batch of events coalesced by the sending
	// task before mirroring; Coalesced holds the count.
	TypeCoalesced

	// TypeStateUpdate is an output event carrying an operational-state
	// update from a main unit (EDE) to its clients.
	TypeStateUpdate

	// TypeRecoveryState carries a serialized EDE state snapshot from the
	// central site to a recovering mirror. Its VT is the consistency cut
	// the snapshot corresponds to: every event with VT at or before the
	// cut is reflected in the payload, so the mirror installs the
	// snapshot and applies only later events.
	TypeRecoveryState

	// TypeBarrier is a process-local sentinel used by a main unit to run
	// a closure at an exact point of its event stream. It never crosses
	// a link and is never serialized.
	TypeBarrier

	// TypeStateDelta carries a framed per-flight field-level state
	// delta (internal/statedelta) in place of the raw data event(s) it
	// summarizes. The central sending task emits them when the
	// field-delta mirroring regime is installed; mirror EDEs apply them
	// incrementally through ede.DeltaRule.
	TypeStateDelta

	// TypeRecoveryDelta is the incremental counterpart of
	// TypeRecoveryState: its payload is a framed statedelta stream
	// holding the absolute state, at the event's VT (the consistency
	// cut), of exactly the flights that mutated since the rejoiner's
	// committed cut. Installing it overwrites only those flights, so a
	// lagging mirror rejoins without shipping the full snapshot.
	TypeRecoveryDelta
)

// Control event types (exchanged on control channels).
const (
	// TypeChkpt is the coordinator's CHKPT proposal carrying a
	// candidate commit timestamp.
	TypeChkpt Type = iota + 128

	// TypeChkptReply is a participant's CHKPT_REP carrying the highest
	// timestamp its main unit has safely processed.
	TypeChkptReply

	// TypeCommit is the coordinator's COMMIT for the agreed timestamp.
	TypeCommit

	// TypeAdapt carries an adaptation directive (piggybacked on
	// checkpoint traffic in the paper; also valid standalone).
	TypeAdapt

	// TypeHello announces a site joining the mirror group.
	TypeHello

	// TypeRecoveryRequest asks the central site to replay backup-queue
	// events to a rejoining mirror (future-work extension). Sent down a
	// mirror's control link, it is the central's notice that its
	// failure detector excluded the site: a running mirror answers with
	// its own request.
	TypeRecoveryRequest

	// TypeTakeover announces a promoted central over the wire: after a
	// standby (or election winner) adopts the central role, it
	// broadcasts this event on every survivor's control downlink until
	// the survivor rejoins. Seq carries the promotion epoch; the
	// payload is a core.TakeoverAnnouncement (new ctrl.up address plus
	// the adopted state's processed watermark for rejoin-cut
	// negotiation).
	TypeTakeover

	// TypeElect is a central-election claim exchanged between mirrors
	// when the central dies and no standby was designated. Seq carries
	// the claimed epoch; the payload is a core.ElectionClaim (claimant
	// site and committed cut — highest cut wins, ties break to the
	// lowest site ID).
	TypeElect
)

// String returns the conventional name of the event type.
func (t Type) String() string {
	switch t {
	case TypeInvalid:
		return "invalid"
	case TypeFAAPosition:
		return "faa-position"
	case TypeDeltaStatus:
		return "delta-status"
	case TypeGateReader:
		return "gate-reader"
	case TypeCrewUpdate:
		return "crew-update"
	case TypeBaggage:
		return "baggage"
	case TypeWeather:
		return "weather"
	case TypeAllBoarded:
		return "all-boarded"
	case TypeFlightArrived:
		return "flight-arrived"
	case TypeCoalesced:
		return "coalesced"
	case TypeStateUpdate:
		return "state-update"
	case TypeRecoveryState:
		return "recovery-state"
	case TypeBarrier:
		return "barrier"
	case TypeStateDelta:
		return "state-delta"
	case TypeRecoveryDelta:
		return "recovery-delta"
	case TypeChkpt:
		return "CHKPT"
	case TypeChkptReply:
		return "CHKPT_REP"
	case TypeCommit:
		return "COMMIT"
	case TypeAdapt:
		return "ADAPT"
	case TypeHello:
		return "HELLO"
	case TypeRecoveryRequest:
		return "RECOVERY_REQ"
	case TypeTakeover:
		return "TAKEOVER"
	case TypeElect:
		return "ELECT"
	default:
		return fmt.Sprintf("type(%d)", uint16(t))
	}
}

// IsControl reports whether t is a framework control event.
func (t Type) IsControl() bool { return t >= TypeChkpt }

// IsData reports whether t is an application data or derived event.
func (t Type) IsData() bool { return t != TypeInvalid && t < TypeChkpt }

// Status enumerates the flight lifecycle states carried by
// TypeDeltaStatus events. Order matters: the lifecycle advances
// monotonically, which the EDE uses to reject stale transitions.
type Status uint8

// Flight lifecycle states.
const (
	StatusUnknown Status = iota
	StatusScheduled
	StatusBoarding
	StatusBoarded
	StatusDeparted
	StatusEnRoute
	StatusLanded
	StatusAtRunway
	StatusAtGate
	StatusArrived
)

// String returns the human-readable name of the status.
func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusScheduled:
		return "scheduled"
	case StatusBoarding:
		return "boarding"
	case StatusBoarded:
		return "boarded"
	case StatusDeparted:
		return "departed"
	case StatusEnRoute:
		return "en-route"
	case StatusLanded:
		return "landed"
	case StatusAtRunway:
		return "at-runway"
	case StatusAtGate:
		return "at-gate"
	case StatusArrived:
		return "arrived"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Terminal reports whether s ends the tracked portion of a flight's
// lifecycle: once a flight has landed, further FAA position updates for
// it are discardable (the set_complex_seq rule from the paper).
func (s Status) Terminal() bool { return s >= StatusLanded }
