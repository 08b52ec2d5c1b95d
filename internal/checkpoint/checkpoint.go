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
// The coordinator alone owns the quorum. Its voters are the central
// main unit, whose replies carry Stream CentralParticipant, and mirror
// slots 0..Participants-2, whose replies carry their slot. Exclude and
// Admit move a mirror slot out of and back into the live set, which
// receives traffic (Alive) and votes; a round waits for exactly the
// live voters it started with. Detect installs a failure detector: a
// live mirror that lets more than the miss budget of rounds start
// without replying is excluded as the next round starts. Without one,
// nothing is excluded automatically.
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
	"sync/atomic"
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

// siteSet is a set of participant identities (reply Stream values).
type siteSet [4]uint64

func (s *siteSet) has(site uint8) bool { return s[site>>6]&(1<<(site&63)) != 0 }
func (s *siteSet) add(site uint8)      { s[site>>6] |= 1 << (site & 63) }
func (s *siteSet) del(site uint8)      { s[site>>6] &^= 1 << (site & 63) }

// Coordinator runs at the central site's auxiliary unit. It initiates
// rounds, collects CHKPT_REP replies, computes their minimum, and
// issues COMMIT.
type Coordinator struct {
	// Propose returns the timestamp to suggest: usually the most
	// recent value found in the central backup queue. A nil proposal
	// skips the round (nothing to commit).
	Propose func() vclock.VC
	// Broadcast sends a control event to every live mirror aux unit
	// (Alive) and to the central site's own main unit.
	Broadcast func(*event.Event)
	// OnCommit applies a committed timestamp locally (trim the central
	// backup queue).
	OnCommit func(vclock.VC)
	// Participants is the number of voters with no mirror excluded: the
	// central main unit (CentralParticipant) plus mirror slots
	// 0..Participants-2. Set it before the first round and leave it;
	// Exclude and Admit change which of them vote.
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
	// Owed, when non-nil, receives an owed trigger when the open round
	// closes: the driver hands it back to whatever calls Due. Rounds
	// close on the reply, Exclude and NextRound paths, which may run
	// under the driver's locks. Nil starts the owed round at once.
	Owed func()

	mu        sync.Mutex
	round     uint64
	floor     uint64  // rounds at or below this belong to a previous central
	waiting   siteSet // the open round's voters that have not replied; empty = no round open
	min       vclock.VC
	commits   uint64
	rounds    uint64
	startedAt time.Time
	deferred  int  // automatic triggers the open round has deferred
	owed      bool // a deferred trigger waits for the open round to close

	// excluded holds the mirror slots out of the live set, one bit per
	// slot. It changes under mu; Alive reads it without the lock, since
	// the fan-out asks once per batch.
	excluded  [4]atomic.Uint64
	budget    int // miss budget; 0 = no failure detector
	onExclude func(site int)
	missed    []int // per mirror slot: rounds started since its last reply
}

// Detect installs the failure detector: a live mirror that lets more
// than budget rounds start without a reply from it is excluded as the
// next round starts, and onExclude, when non-nil, is told every
// exclusion, automatic or through Exclude. Installed over another
// detector, it replaces the budget and hook; the live set and the miss
// counts carry over.
func (c *Coordinator) Detect(budget int, onExclude func(site int)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget, c.onExclude = budget, onExclude
	if c.missed == nil {
		c.missed = make([]int, max(c.Participants-1, 0))
	}
}

// Alive reports whether mirror slot site is in the live set: it
// receives traffic and votes in every round started while it stays.
func (c *Coordinator) Alive(site int) bool {
	return site >= 0 && site < c.Participants-1 &&
		c.excluded[site>>6].Load()&(1<<(site&63)) == 0
}

// Exclude removes mirror slot site from the live set. An open round
// that still waits for its vote stops waiting, and if that was the last
// vote it waited for, it commits the minimum received. A vote the slot
// already cast stays counted, so the round still needs every other
// voter. Excluding a slot out of the live set is a no-op.
func (c *Coordinator) Exclude(site int) {
	c.mu.Lock()
	if !c.Alive(site) {
		c.mu.Unlock()
		return
	}
	var (
		round uint64
		cut   vclock.VC
		owed  bool
	)
	w := &c.excluded[site>>6]
	w.Store(w.Load() | 1<<(site&63))
	if c.drop(uint8(site)) {
		owed = c.closeRound()
		round, cut = c.round, c.min.Clone()
	}
	hook := c.onExclude
	c.mu.Unlock()
	if cut != nil {
		c.finish(round, cut)
	}
	if owed {
		c.release()
	}
	if hook != nil {
		hook(site)
	}
}

// drop removes site from the open round's outstanding voters, if it is
// one, and reports whether the round now waits for nobody. Caller holds
// c.mu.
func (c *Coordinator) drop(site uint8) (done bool) {
	if !c.waiting.has(site) {
		return false
	}
	c.waiting.del(site)
	return !c.open()
}

// open reports whether a round is open: it waits for a vote. Caller
// holds c.mu.
func (c *Coordinator) open() bool { return c.waiting != siteSet{} }

// Admit returns mirror slot site to the live set. It votes from the
// next round on: it never received the open round's CHKPT, so waiting
// for it would block that round forever.
func (c *Coordinator) Admit(site int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if site < 0 || site >= c.Participants-1 {
		return
	}
	w := &c.excluded[site>>6]
	w.Store(w.Load() &^ (1 << (site & 63)))
	if site < len(c.missed) {
		c.missed[site] = 0
	}
}

// Due registers one automatic checkpoint trigger and reports whether
// it started a round. With no round open it starts one (Init) with the
// newest proposal. With one open it defers the trigger and owes it: the
// round's close — a commit, an Exclude that completes it, or NextRound
// — starts the next round. The trigger that finds maxDeferred triggers
// already deferred abandons the open round and starts a new one, as
// Init would.
func (c *Coordinator) Due() bool {
	c.mu.Lock()
	if c.open() && c.deferred < maxDeferred {
		c.deferred++
		c.owed = true
		c.mu.Unlock()
		return false
	}
	// This trigger starts the round, so none is owed any more.
	c.owed = false
	c.mu.Unlock()
	return c.Init()
}

// closeRound marks the open round closed and reports whether a trigger
// was owed to it; caller holds c.mu and, when it was, calls release
// after unlocking.
func (c *Coordinator) closeRound() (owed bool) {
	owed = c.owed
	c.waiting, c.owed = siteSet{}, false
	return owed
}

// release hands an owed trigger on once its round has closed.
func (c *Coordinator) release() {
	if c.Owed != nil {
		c.Owed()
		return
	}
	c.Init()
}

// Init starts a new checkpoint round, whatever is open. If a previous
// round is still open it is abandoned: its eventual commit is subsumed
// by this one. It reports whether a round was actually started.
//
// With a detector installed, the round first counts against every live
// mirror and excludes those past the budget. Those exclusions apply to
// the open round first, so a round that waited only for them commits
// before the new one starts, and the exclusion hook runs before the
// new round's CHKPT (and its piggyback) goes out.
func (c *Coordinator) Init() bool {
	proposal := c.Propose()
	if proposal == nil {
		return false
	}
	c.mu.Lock()
	if failed := c.countMisses(); failed != nil {
		// The round starting here satisfies whatever trigger the open
		// round owes, so closing that round must not release it.
		c.owed = false
		c.mu.Unlock()
		for _, site := range failed {
			c.Exclude(site)
		}
		c.mu.Lock()
	}
	c.round++
	round := c.round
	c.waiting = c.voters()
	open := c.open()
	c.min = nil
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
	if !open {
		// Degenerate single-site deployment: commit immediately.
		c.finish(round, proposal)
	}
	return true
}

// countMisses counts a starting round against every live mirror and
// returns those past the miss budget. Caller holds c.mu.
func (c *Coordinator) countMisses() (failed []int) {
	if c.budget <= 0 {
		return nil
	}
	for site := range c.missed {
		if !c.Alive(site) {
			continue
		}
		if c.missed[site]++; c.missed[site] > c.budget {
			failed = append(failed, site)
		}
	}
	return failed
}

// voters returns the set a round starting now waits for: the central
// main unit and every live mirror slot.
func (c *Coordinator) voters() (set siteSet) {
	if c.Participants > 0 {
		set.add(CentralParticipant)
	}
	for site := 0; site < c.Participants-1; site++ {
		if c.Alive(site) {
			set.add(uint8(site))
		}
	}
	return set
}

// OnReply handles a CHKPT_REP. A reply from a live mirror resets its
// miss count. It counts as a vote only from a voter of the open round
// that has not voted yet (Stream carries the site identity): replies
// for abandoned rounds, from sites excluded before voting or admitted
// mid-round, and a control link's duplicate of a vote already counted
// are ignored, so the commit is never the minimum over a subset and
// never runs ahead of a silent site. When the round's last vote
// arrives, the minimum timestamp is committed and broadcast.
func (c *Coordinator) OnReply(e *event.Event) {
	if e.Type != event.TypeChkptReply {
		return
	}
	c.mu.Lock()
	if site := int(e.Stream); site < len(c.missed) && c.Alive(site) {
		c.missed[site] = 0
	}
	if e.Seq <= c.floor {
		// A reply stamped by a previous central's coordinator, still in
		// flight when the role moved. The round check below would reject
		// it too (resumed rounds start past the floor), but the explicit
		// guard keeps promotion safety independent of round-allocation
		// order and makes the property fuzzable on its own.
		c.mu.Unlock()
		return
	}
	if e.Seq != c.round || !c.waiting.has(e.Stream) {
		c.mu.Unlock()
		return
	}
	if c.min == nil {
		c.min = e.VT.Clone()
	} else {
		c.min = c.min.Min(e.VT)
	}
	done := c.drop(e.Stream)
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
