package core

import (
	"fmt"

	"adaptmirror/internal/event"
	"adaptmirror/internal/statedelta"
	"adaptmirror/internal/vclock"
)

// Recovery support is listed as future work in the paper ("extending
// the mirroring infrastructure with recovery support, for both client
// failures, and failures of a node within the cluster server"); this
// file implements the server-node half: a mirror site that lost state
// (crash, restart) is brought back by replaying the central backup
// queue, which by construction still holds every mirrored event not
// yet covered by a checkpoint commit, preceded by a state transfer
// covering the committed prefix.
//
// The state transfer comes in two modes, negotiated on the rejoiner's
// last committed cut. A rejoiner presenting a cut within the central
// mutation journal's horizon (ede.State.DeltaSince) gets a
// TypeRecoveryDelta: absolute statedelta records for exactly the
// flights that mutated past its cut. Anything else — a crash-restarted
// site with no cut, or a cut older than the journal floor — gets the
// classic TypeRecoveryState full snapshot. Both are followed by the
// backup-queue suffix past the transfer's own cut and converge to the
// same bytes.

// RecoveryMode identifies which state-transfer form a recovery
// snapshot carries.
type RecoveryMode uint8

const (
	// RecoverSnapshot ships the full serialized EDE state.
	RecoverSnapshot RecoveryMode = iota
	// RecoverDelta ships only the flights that mutated past the
	// rejoiner's committed cut, as framed statedelta records.
	RecoverDelta
)

// String names the mode the way the rejoin metrics label it.
func (m RecoveryMode) String() string {
	if m == RecoverDelta {
		return "delta"
	}
	return "snapshot"
}

// RecoverySnapshot is what a rejoining mirror needs: the central EDE
// state (full or delta form), the consistency cut that state
// corresponds to, and the retained backup events past the cut.
// Installing the transfer and applying only events past the cut
// reconstructs a mirror replica exactly.
type RecoverySnapshot struct {
	// Mode selects between State (RecoverSnapshot) and Delta
	// (RecoverDelta) as the transfer body.
	Mode RecoveryMode
	// State is the serialized central EDE state (ede.Snapshot format);
	// nil in delta mode.
	State []byte
	// Delta is a framed statedelta stream holding absolute records for
	// the flights that mutated past the rejoiner's cut; nil in
	// snapshot mode, and empty when nothing mutated at all.
	Delta []byte
	// Cut is the highest event timestamp reflected in State/Delta;
	// events at or before Cut must not be re-applied on top of it.
	Cut vclock.VC
	// Events are the retained backup-queue events past Cut, in
	// timestamp order. The receiving site's arrival watermark discards
	// any overlap.
	Events []*event.Event
	// Directive is the most recent adaptation directive the central
	// piggybacked on a checkpoint round (nil if none yet), and
	// DirectiveRound the round that stamped it. Carrying it in the
	// snapshot lets a rejoining mirror converge on the installed
	// regime immediately instead of waiting for the next transition.
	Directive      []byte
	DirectiveRound uint64
}

// WireBytes is the transfer's payload volume: what the rejoin-bytes
// accounting (and the bench-rejoin scenario) measures.
func (s *RecoverySnapshot) WireBytes() int {
	n := len(s.State) + len(s.Delta) + len(s.Directive)
	for _, e := range s.Events {
		n += len(e.Payload)
	}
	return n
}

// BuildRecovery assembles a full-snapshot recovery transfer (the
// no-negotiation entry point: external links, tooling, rejoiners with
// no usable cut).
func (c *Central) BuildRecovery() RecoverySnapshot {
	return c.BuildRecoverySince(nil)
}

// BuildRecoverySince assembles a recovery transfer for a rejoiner
// whose last committed cut is `cut` (nil when unknown). The state
// body — full snapshot, or journal delta when the cut is within
// horizon — and the transfer's Cut are captured through a main-unit
// barrier, so they are exactly consistent — the state of precisely
// the events the EDE applied before the barrier, stamped with their
// merged timestamp — even while events are flowing. If the main unit
// has already shut down, the pair is read directly (the EDE is
// quiescent then, so the direct read is just as consistent). The
// backup replay is the suffix past the captured Cut in either mode:
// everything at or before it is inside the state body, and the
// receiver's arrival watermark (advanced by the head event's VT)
// would discard it anyway.
func (c *Central) BuildRecoverySince(cut vclock.VC) RecoverySnapshot {
	var snap RecoverySnapshot
	capture := func() {
		st := c.main.Engine().State()
		snap.Cut = c.main.Engine().LastProcessed()
		if recs, ok := st.DeltaSince(cut); ok {
			snap.Mode = RecoverDelta
			if len(recs) > 0 {
				if buf, err := statedelta.EncodeFrame(recs); err == nil {
					snap.Delta = buf
				} else {
					// Unencodable delta (cannot happen with journal-built
					// records, but never ship a broken frame): fall back.
					snap.Mode = RecoverSnapshot
					snap.State = st.Snapshot()
				}
			}
		} else {
			snap.Mode = RecoverSnapshot
			snap.State = st.Snapshot()
		}
	}
	if err := c.main.Barrier(capture); err != nil {
		capture()
	}
	snap.Events = c.backup.SnapshotSince(snap.Cut)
	snap.DirectiveRound, snap.Directive = c.lastDirectiveSnapshot()
	return snap
}

// recoveryEvents flattens a snapshot into the wire sequence pushed to
// a recovering mirror: one head event carrying the state transfer at
// the cut — TypeRecoveryState with the serialized state, or
// TypeRecoveryDelta with the framed record stream (empty when nothing
// mutated; the VT still advances the receiver's watermark) — then
// (when the adaptation loop has distributed one) the current regime
// directive stamped with its round — the receiver's watermark makes
// it idempotent — followed by the backup replay.
func recoveryEvents(snap RecoverySnapshot) []*event.Event {
	events := make([]*event.Event, 0, len(snap.Events)+2)
	head := &event.Event{
		Type:      event.TypeRecoveryState,
		Coalesced: 1,
		VT:        snap.Cut,
		Payload:   snap.State,
	}
	if snap.Mode == RecoverDelta {
		head.Type = event.TypeRecoveryDelta
		head.Payload = snap.Delta
	}
	events = append(events, head)
	if len(snap.Directive) > 0 {
		events = append(events, &event.Event{
			Type:      event.TypeAdapt,
			Coalesced: 1,
			Seq:       snap.DirectiveRound,
			Payload:   snap.Directive,
		})
	}
	return append(events, snap.Events...)
}

// RecoverMirror pushes a full-snapshot recovery transfer to a mirror
// site's data link. It returns the number of events replayed.
//
// This entry point serves external links (a site outside the
// configured mirror set, tests, tooling); re-admitting a configured
// mirror goes through Membership.Rejoin / Membership.RejoinSince,
// which additionally serializes the transfer against the live
// fan-out.
func (c *Central) RecoverMirror(link DataSender) (int, error) {
	return c.RecoverMirrorSince(link, nil)
}

// RecoverMirrorSince is RecoverMirror with cut negotiation: the
// rejoiner's last committed cut selects delta or snapshot mode. The
// state transfer travels as one heap-owned block: a head event whose
// payload is the state body and whose VT is the consistency cut,
// followed by the backup suffix.
func (c *Central) RecoverMirrorSince(link DataSender, cut vclock.VC) (int, error) {
	snap := c.BuildRecoverySince(cut)
	if err := link.SubmitOwned(recoveryEvents(snap), nil); err != nil {
		return 0, fmt.Errorf("core: recovery transfer: %w", err)
	}
	c.noteRejoin(snap)
	return len(snap.Events), nil
}

// recoverMirrorAndReadmit transfers a recovery snapshot to configured
// mirror i through its fan-out sender and atomically re-admits it.
// Holding sendMu across the build + transfer pins the backup queue and
// the outboxes: every event is either inside the state transfer (VT at
// or before the cut), in the backup replay, or fanned out after the
// readmit flip — exactly one of the three, which is what byte-for-byte
// convergence of the recovered replica requires. readmit runs on the
// sender's submission mutex after a successful transfer, before any
// subsequent drained batch can be liveness-checked.
func (c *Central) recoverMirrorAndReadmit(i int, cut vclock.VC, readmit func()) (int, error) {
	if i < 0 || i >= len(c.senders) {
		return 0, fmt.Errorf("core: no fan-out sender for mirror %d", i)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	snap := c.BuildRecoverySince(cut)
	if err := c.senders[i].recoverySend(recoveryEvents(snap), readmit); err != nil {
		return 0, fmt.Errorf("core: recovery transfer to mirror %d: %w", i, err)
	}
	c.noteRejoin(snap)
	return len(snap.Events), nil
}

// noteRejoin books one completed recovery transfer in the rejoin
// accounting (rejoin_mode_total / rejoin_bytes_total).
func (c *Central) noteRejoin(snap RecoverySnapshot) {
	bytes := uint64(snap.WireBytes())
	if snap.Mode == RecoverDelta {
		c.rejoinDeltas.Add(1)
		c.rejoinDeltaBytes.Add(bytes)
	} else {
		c.rejoinSnapshots.Add(1)
		c.rejoinSnapshotBytes.Add(bytes)
	}
}

// RejoinStats reports completed recovery transfers and their payload
// volume, by mode (tests, benchmarks; the same counters back the
// rejoin metrics).
type RejoinStats struct {
	Snapshots     uint64
	Deltas        uint64
	SnapshotBytes uint64
	DeltaBytes    uint64
}

// RejoinStats returns the rejoin transfer counters.
func (c *Central) RejoinStats() RejoinStats {
	return RejoinStats{
		Snapshots:     c.rejoinSnapshots.Load(),
		Deltas:        c.rejoinDeltas.Load(),
		SnapshotBytes: c.rejoinSnapshotBytes.Load(),
		DeltaBytes:    c.rejoinDeltaBytes.Load(),
	}
}
