// Package checkpoint implements the modified two-phase commit protocol
// of the paper's Figure 3, which advances a consistent view of
// application state across mirror sites and lets every unit trim its
// backup queue.
//
// The protocol is non-standard in several ways the paper calls out:
// during the voting phase the coordinator *suggests* a timestamp (the
// most recent value in its backup queue); participants reply with the
// minimum of that suggestion and their own progress; there are no 'No'
// votes and no ABORT messages; no timeouts are used — if a round has
// not committed before the next one starts, the later commit subsumes
// the earlier one; and a commit naming an event no longer in a unit's
// backup queue is simply ignored.
//
// Automatic rounds are paced by commits. The paper triggers a round
// every N processed events; once a round trip outlasts N events of
// traffic, starting every triggered round would abandon nearly all of
// them before they commit. Coordinator.Due therefore keeps at most one
// automatic round in flight: a trigger that finds a round open is
// deferred, and the round's close starts the next one with the newest
// proposal. Subsumption remains the rule for explicit rounds (Init
// always starts one) and for deferral overflow: the trigger after
// maxDeferred deferred ones abandons the open round, so a lost CHKPT or
// reply still heals.
//
// The package provides the three state machines of Figure 3 —
// Coordinator (central aux unit), Mirror (mirror aux unit), and Main
// (main unit) — wired to their surroundings through callbacks, so the
// same machines run over in-process channels in the harness and over
// TCP links in a deployed cluster. Adaptation directives piggyback on
// checkpoint control events (paper Section 3.2.2) via the Piggyback
// hooks.
package checkpoint

import (
	"sync"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// CentralParticipant is the Stream value the central main unit stamps
// on its own checkpoint replies. Mirror sites stamp their 0-based
// SiteID; 0xFF is reserved so the coordinator's per-site reply
// accounting can tell the central vote apart from mirror 0's (a
// cluster is limited to 255 mirrors, far beyond the paper's eight).
const CentralParticipant uint8 = 0xFF

// EpochShift partitions the round-number space by promotion epoch: a
// coordinator resumed at epoch e stamps rounds above EpochBase(e), so
// every round it issues is strictly greater than anything the previous
// central could have stamped (rounds advance one per checkpoint or
// directive broadcast — 2^32 of them is decades of continuous
// operation). Receiver-side directive watermarks and the coordinator's
// own reply floor both lean on this monotonicity.
const EpochShift = 32

// EpochBase returns the first round number reserved for promotion
// epoch e. Epoch 0 is the original central; its rounds start at 1.
func EpochBase(epoch uint64) uint64 { return epoch << EpochShift }

// maxDeferred is how many automatic triggers an open round defers
// before the next trigger abandons it. It equals the default miss
// budget: a failure detector counting started rounds still sees one at
// least every maxDeferred+1 triggers.
const maxDeferred = 8

// Coordinator runs at the central site's auxiliary unit. It initiates
// rounds, collects CHKPT_REP replies, computes their minimum, and
// issues COMMIT.
type Coordinator struct {
	// Propose returns the timestamp to suggest: usually the most
	// recent value found in the central backup queue. A nil proposal
	// skips the round (nothing to commit).
	Propose func() vclock.VC
	// Broadcast sends a control event to every mirror aux unit and to
	// the central site's own main unit.
	Broadcast func(*event.Event)
	// OnCommit applies a committed timestamp locally (trim the central
	// backup queue).
	OnCommit func(vclock.VC)
	// Participants is the number of CHKPT_REP replies that complete a
	// round (mirror sites + the central main unit).
	Participants int
	// Piggyback, when non-nil, returns bytes to attach to outgoing
	// CHKPT events (adaptation directives ride along here). It is
	// passed the round number stamped on the CHKPT so directives carry
	// a version: receivers discard deliveries for rounds at or below
	// their watermark.
	Piggyback func(round uint64) []byte
	// RoundLatency, when non-nil, receives each committed round's
	// CHKPT→COMMIT latency. Abandoned rounds report nothing — their
	// time is folded into the subsuming round.
	RoundLatency func(time.Duration)
	// Start, when non-nil, starts the rounds automatic triggers call for
	// (Due's, and an owed trigger's when Owed is nil), so the driver can
	// run its round-start bookkeeping first; it must end in Init. Nil
	// calls Init.
	Start func() bool
	// Owed, when non-nil, receives an owed trigger when the open round
	// closes: the driver hands it back to whatever calls Due. Rounds close
	// on the reply, shrink and NextRound paths, which may run under the
	// driver's locks. Nil starts the owed round at once.
	Owed func()

	mu        sync.Mutex
	round     uint64
	floor     uint64 // rounds at or below this belong to a previous central
	pending   int    // replies the open round still needs; 0 = no round open
	min       vclock.VC
	replied   [4]uint64 // per-site reply bitset for the open round, keyed by Stream
	commits   uint64
	rounds    uint64
	startedAt time.Time
	deferred  int  // automatic triggers the open round has deferred
	owed      bool // a deferred trigger waits for the open round to close
}

// Due registers one automatic checkpoint trigger and reports whether
// it started a round. With no round open it starts one (through Start)
// with the newest proposal. With one open it defers the trigger and
// owes it: the round's close — a commit, a SetParticipants shrink that
// completes or empties it, or NextRound — starts the next round. The
// trigger that finds maxDeferred triggers already deferred abandons the
// open round and starts a new one, as Init would.
func (c *Coordinator) Due() bool {
	c.mu.Lock()
	if c.pending > 0 && c.deferred < maxDeferred {
		c.deferred++
		c.owed = true
		c.mu.Unlock()
		return false
	}
	// This trigger starts the round, so none is owed any more: a round
	// closed by the driver's round-start bookkeeping must not start a
	// second one.
	c.owed = false
	c.mu.Unlock()
	return c.start()
}

func (c *Coordinator) start() bool {
	if c.Start != nil {
		return c.Start()
	}
	return c.Init()
}

// closeRound marks the open round closed and reports whether a trigger
// was owed to it; caller holds c.mu and, when it was, calls release
// after unlocking.
func (c *Coordinator) closeRound() (owed bool) {
	owed = c.owed
	c.pending, c.owed = 0, false
	return owed
}

// release hands an owed trigger on once its round has closed.
func (c *Coordinator) release() {
	if c.Owed != nil {
		c.Owed()
		return
	}
	c.start()
}

// Init starts a new checkpoint round, whatever is open. If a previous
// round is still open it is abandoned: its eventual commit is subsumed
// by this one. It reports whether a round was actually started.
func (c *Coordinator) Init() bool {
	proposal := c.Propose()
	if proposal == nil {
		return false
	}
	c.mu.Lock()
	c.round++
	round := c.round
	c.pending = c.Participants
	participants := c.Participants
	c.min = nil
	c.replied = [4]uint64{}
	c.rounds++
	c.startedAt = time.Now()
	c.deferred, c.owed = 0, false
	c.mu.Unlock()

	ev := event.NewControl(event.TypeChkpt, proposal)
	ev.Seq = round
	if c.Piggyback != nil {
		ev.Payload = c.Piggyback(round)
	}
	c.Broadcast(ev)
	if participants == 0 {
		// Degenerate single-site deployment: commit immediately.
		c.finish(round, proposal)
	}
	return true
}

// OnReply handles a CHKPT_REP. Replies for abandoned rounds are
// ignored, and so is a second reply from a site that already voted
// this round (Stream carries the site identity): a control link that
// duplicates messages must not complete the round before every
// distinct participant has replied, or the commit would be the
// minimum over a subset and could run ahead of a silent site.
// When the round's last distinct reply arrives, the minimum timestamp
// is committed and broadcast.
func (c *Coordinator) OnReply(e *event.Event) {
	if e.Type != event.TypeChkptReply {
		return
	}
	c.mu.Lock()
	if e.Seq <= c.floor {
		// A reply stamped by a previous central's coordinator, still in
		// flight when the role moved. The round check below would reject
		// it too (resumed rounds start past the floor), but the explicit
		// guard keeps promotion safety independent of round-allocation
		// order and makes the property fuzzable on its own.
		c.mu.Unlock()
		return
	}
	if e.Seq != c.round || c.pending == 0 {
		c.mu.Unlock()
		return
	}
	bit := uint(e.Stream)
	if c.replied[bit>>6]&(1<<(bit&63)) != 0 {
		c.mu.Unlock()
		return
	}
	c.replied[bit>>6] |= 1 << (bit & 63)
	if c.min == nil {
		c.min = e.VT.Clone()
	} else {
		c.min = c.min.Min(e.VT)
	}
	c.pending--
	done := c.pending == 0
	owed := done && c.closeRound()
	round := c.round
	commit := c.min.Clone()
	c.mu.Unlock()
	if done {
		c.finish(round, commit)
	}
	if owed {
		c.release()
	}
}

func (c *Coordinator) finish(round uint64, commit vclock.VC) {
	c.mu.Lock()
	c.commits++
	started := c.startedAt
	c.mu.Unlock()
	if c.RoundLatency != nil && !started.IsZero() {
		c.RoundLatency(time.Since(started))
	}
	ev := event.NewControl(event.TypeCommit, commit)
	ev.Seq = round
	c.Broadcast(ev)
	if c.OnCommit != nil {
		c.OnCommit(commit)
	}
}

// NextRound allocates and returns a fresh round number for an
// out-of-band control broadcast (a standalone adaptation directive
// whose content changed after the last checkpoint stamped one). Any
// open checkpoint round is closed without a commit — its late replies
// are ignored and a later round's commit subsumes it — and a trigger
// it owed is released, so round numbers stay globally monotone across
// CHKPTs and directive re-broadcasts, which is what receiver
// watermarks rely on.
func (c *Coordinator) NextRound() uint64 {
	c.mu.Lock()
	c.round++
	round := c.round
	owed := c.closeRound()
	c.mu.Unlock()
	if owed {
		c.release()
	}
	return round
}

// Resume prepares a coordinator that takes over from a failed central
// (warm-standby promotion): round numbering restarts strictly above
// floor, and replies stamped at or below it — stragglers addressed to
// the old coordinator — are ignored. Use EpochBase to pick a floor
// past everything the old central could have stamped. Call before the
// first Init.
func (c *Coordinator) Resume(floor uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if floor > c.round {
		c.round = floor
	}
	if floor > c.floor {
		c.floor = floor
	}
}

// SetParticipants changes the number of replies that complete a round
// (membership changes: failed mirrors leave the quorum, recovered ones
// rejoin).
//
// A growth takes effect at the next Init: a mirror admitted mid-round
// never received the open round's CHKPT, so waiting for its reply
// would block the round forever. A shrink, however, applies to the
// open round immediately — the departed participant will never reply,
// and without the adjustment the round would hang until subsumed (or,
// with no further rounds, forever). If the shrink satisfies the open
// round's remaining quorum, the round commits with the minimum of the
// replies already received. Either way the close releases a trigger the
// round owed.
func (c *Coordinator) SetParticipants(n int) {
	c.mu.Lock()
	delta := n - c.Participants
	c.Participants = n
	var (
		finishRound  uint64
		finishCommit vclock.VC
		finishNow    bool
		owed         bool
	)
	if delta < 0 && c.pending > 0 {
		c.pending += delta
		if c.pending <= 0 {
			owed = c.closeRound()
			if c.min != nil {
				finishNow = true
				finishRound = c.round
				finishCommit = c.min.Clone()
			}
			// With no replies received there is nothing to commit:
			// the round simply closes (pending == 0 makes OnReply
			// ignore any stragglers) and the next round subsumes it.
		}
	}
	c.mu.Unlock()
	if finishNow {
		c.finish(finishRound, finishCommit)
	}
	if owed {
		c.release()
	}
}

// Stats returns the number of rounds initiated and commits issued.
func (c *Coordinator) Stats() (rounds, commits uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds, c.commits
}

// Mirror runs at a mirror site's auxiliary unit. Per Figure 3: CHKPT
// is forwarded to the main unit; the main unit's CHKPT_REP is
// forwarded to the central site if its timestamp is (at or before an
// event) in the local backup queue; COMMIT trims the local backup
// queue and is forwarded to the main unit.
type Mirror struct {
	// ToMain forwards a control event to the site's main unit.
	ToMain func(*event.Event)
	// ToCentral sends a control event to the coordinator.
	ToCentral func(*event.Event)
	// Commit trims the local backup queue through the timestamp.
	Commit func(vclock.VC)
	// OnPiggyback, when non-nil, receives the adaptation bytes
	// attached to CHKPT events (and carried by standalone TypeAdapt
	// control events), together with the checkpoint round that stamped
	// them.
	OnPiggyback func(round uint64, payload []byte)
}

// OnControl dispatches one control event through the mirror-aux state
// machine. Non-checkpoint events are ignored.
func (m *Mirror) OnControl(e *event.Event) {
	switch e.Type {
	case event.TypeChkpt:
		if m.OnPiggyback != nil && len(e.Payload) > 0 {
			m.OnPiggyback(e.Seq, e.Payload)
		}
		m.ToMain(e)
	case event.TypeAdapt:
		// A standalone adaptation directive (re-broadcast outside a
		// checkpoint round, e.g. after the backup queue drains). Not a
		// round message, so it is not forwarded to the main unit.
		if m.OnPiggyback != nil && len(e.Payload) > 0 {
			m.OnPiggyback(e.Seq, e.Payload)
		}
	case event.TypeChkptReply:
		// From our main unit: forward to the coordinator. The paper's
		// "if chkpt_rep in backup queue" guard is subsumed by the
		// commit side: stale commits are ignored by the backup queue
		// itself, so a reply is always safe to forward.
		m.ToCentral(e)
	case event.TypeCommit:
		// "if commit in backup queue, update backup queue": the
		// backup queue ignores commits at or below its trim point.
		if m.Commit != nil {
			m.Commit(e.VT)
		}
		m.ToMain(e)
	}
}

// Main runs at a main unit (central or mirror). On CHKPT it replies
// with min{suggested, last locally processed}; on COMMIT it trims any
// main-unit-side retained state.
type Main struct {
	// LastProcessed returns the highest event timestamp the unit's
	// business logic has applied.
	LastProcessed func() vclock.VC
	// Reply sends a control event back to the local aux unit (or, for
	// the central main unit, directly to the coordinator).
	Reply func(*event.Event)
	// Commit, when non-nil, is told the committed timestamp.
	Commit func(vclock.VC)
}

// OnControl dispatches one control event through the main-unit state
// machine.
func (m *Main) OnControl(e *event.Event) {
	switch e.Type {
	case event.TypeChkpt:
		last := m.LastProcessed()
		rep := e.VT.Min(last)
		if last == nil {
			// Nothing processed yet: vote zero progress.
			rep = vclock.New(len(e.VT))
		}
		reply := event.NewControl(event.TypeChkptReply, rep)
		reply.Seq = e.Seq
		m.Reply(reply)
	case event.TypeCommit:
		if m.Commit != nil {
			m.Commit(e.VT)
		}
	}
}
