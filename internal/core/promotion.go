package core

import (
	"encoding/binary"
	"fmt"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// Central failover. The paper hangs every mirror, the checkpoint
// coordinator and the directive publisher off one central site; this
// file keeps the cluster alive when it dies. Takeover (below) decides
// when the central is dead and who replaces it — a pure state machine
// that the TCP runtime (internal/site) and the chaos rig both drive.
// The chosen mirror captures its local view (MirrorSite.Promote), and
// a new Central built with CentralConfig.Resume takes over:
//
//   - the standby's main unit is adopted whole — EDE state, processed
//     watermark, and (for a Standby-armed site) the mutation journal
//     with its sealed cuts, so survivor rejoins keep getting deltas;
//   - the backup queue is reseeded with the standby's retained events
//     past its last committed cut (committed events were trimmed
//     everywhere and live in every replica's state — nothing is lost);
//   - the stamping clock resumes past every event the standby admitted,
//     so surviving mirrors' dedup watermarks accept fresh traffic;
//   - checkpoint rounds restart above checkpoint.EpochBase(epoch) and
//     the standby's observed round watermark, so survivor-side
//     directive appliers accept the new central's directives and
//     stragglers addressed to the old coordinator are rejected;
//   - survivors are re-pointed through a fresh Membership: everything
//     starts excluded, then RejoinSince re-admits each survivor that
//     follows the announcement, from its own committed cut.

// ResumeState is everything a promoted central takes over from the
// standby mirror it is built on. MirrorSite.Promote captures the
// site-local fields; the caller supplies Epoch (one past the failed
// central's) and, when it tracks directives through an applier, the
// Directive pair.
type ResumeState struct {
	// Epoch is the promotion epoch the new central stamps rounds in
	// (>= 1; the original central is epoch 0).
	Epoch uint64
	// RoundFloor is the highest checkpoint/directive round the standby
	// observed from the failed central. The resumed coordinator stamps
	// strictly above max(EpochBase(Epoch), RoundFloor).
	RoundFloor uint64
	// Clock is the standby's arrival watermark: the stamping clock
	// resumes from here so fresh events never reuse a timestamp a
	// surviving mirror has already admitted.
	Clock vclock.VC
	// Cut is the standby's last committed checkpoint cut (nil before
	// the first commit it saw); it seeds the new backup queue's
	// committed watermark so cut numbering never regresses.
	Cut vclock.VC
	// Events is the standby's retained backup queue — every event past
	// Cut, in timestamp order. They re-enter the new central's backup
	// queue for future rounds to commit; their effects already live in
	// the adopted state, which survivor rejoin transfers carry over, so
	// they are never re-fanned-out directly.
	Events []*event.Event
	// Main is the standby's main unit, adopted whole.
	Main *MainUnit
	// Directive/DirectiveRound restore the last adaptation directive
	// the standby saw installed, so PublishDirective re-broadcasts it
	// idempotently (survivor watermarks already cover the round).
	Directive      []byte
	DirectiveRound uint64
}

// Promote drains this site and captures everything a replacement
// central needs from it: the last committed cut, the retained backup
// suffix (deep copies), the arrival watermark, the observed round
// watermark, and the main unit itself, which is detached — Close will
// no longer shut it down; the adopting Central owns it now. The site
// must already be isolated from live traffic (its central is down);
// after Promote it serves no further purpose beyond being dropped.
func (m *MirrorSite) Promote() ResumeState {
	// Stop admitting, then quiesce the main unit without closing it
	// (detached: the adopting central keeps delivering into it). The
	// captured state must reflect every admitted event, or the resumed
	// clock (arrivalHigh) would run ahead of the adopted state's
	// processed watermark; the barrier runs on the processing goroutine
	// after everything delivered before it.
	m.detached.Store(true)
	m.Drain()
	_ = m.main.Barrier(func() {})
	return ResumeState{
		RoundFloor: m.lastRound.Load(),
		Clock:      m.ArrivalHigh(),
		Cut:        m.backup.Committed(),
		Events:     m.backup.Snapshot(),
		Main:       m.main,
	}
}

// --- Wire takeover protocol ---------------------------------------------
//
// Takeover nodes talk through two control frames carried on the
// existing mirror-to-mirror channels (every mirrord site exports a
// ctrl.down channel any peer can dial):
//
//   - TAKEOVER (event.TypeTakeover): the promoted central's
//     announcement, retried on each survivor's ctrl.down until it
//     rejoins. Epoch-fenced: a survivor records the first announcement
//     it accepts for an epoch and rejects any later announcement for
//     the same or an older epoch from a different address, so two
//     would-be centrals can never split the cluster.
//   - ELECT (event.TypeElect): an election claim exchanged by mirrors
//     when no standby was designated. The winner is deterministic:
//     highest committed cut first (commit quorum requires every live
//     participant, so any site's committed cut is covered by all
//     survivors' states), lowest site ID on ties.

const (
	takeoverWireVersion = 1
	maxTakeoverAddr     = 255
)

// TakeoverAnnouncement is the payload of a TypeTakeover control event.
type TakeoverAnnouncement struct {
	// Epoch is the promotion epoch the new central stamps rounds in.
	Epoch uint64
	// Addr is the promoted site's event-channel address: survivors
	// swing their ctrl.up uplink here.
	Addr string
	// Anchor is the adopted main unit's processed watermark. A
	// survivor whose arrival watermark is covered by Anchor rejoins
	// from its committed cut (delta-eligible); one that admitted
	// events past the adopted state must take the full transfer.
	Anchor vclock.VC
}

// Encode serializes the announcement.
func (a TakeoverAnnouncement) Encode() []byte {
	b := make([]byte, 0, 1+8+2+len(a.Addr)+a.Anchor.EncodedSize())
	b = append(b, takeoverWireVersion)
	b = binary.LittleEndian.AppendUint64(b, a.Epoch)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(a.Addr)))
	b = append(b, a.Addr...)
	b = a.Anchor.AppendBinary(b)
	return b
}

// DecodeTakeoverAnnouncement parses an announcement payload, rejecting
// truncated or trailing bytes.
func DecodeTakeoverAnnouncement(b []byte) (TakeoverAnnouncement, error) {
	var a TakeoverAnnouncement
	if len(b) < 11 {
		return a, fmt.Errorf("core: takeover announcement truncated (%d bytes)", len(b))
	}
	if b[0] != takeoverWireVersion {
		return a, fmt.Errorf("core: takeover announcement version %d", b[0])
	}
	a.Epoch = binary.LittleEndian.Uint64(b[1:])
	n := int(binary.LittleEndian.Uint16(b[9:]))
	if n > maxTakeoverAddr || len(b) < 11+n {
		return a, fmt.Errorf("core: takeover announcement bad address length %d", n)
	}
	a.Addr = string(b[11 : 11+n])
	anchor, used, err := vclock.DecodeVC(b[11+n:])
	if err != nil {
		return a, fmt.Errorf("core: takeover announcement anchor: %w", err)
	}
	if 11+n+used != len(b) {
		return a, fmt.Errorf("core: takeover announcement has %d trailing bytes", len(b)-11-n-used)
	}
	a.Anchor = anchor
	return a, nil
}

// ElectionClaim is the payload of a TypeElect control event: one
// mirror's bid to become the epoch's central.
type ElectionClaim struct {
	// Epoch is the promotion epoch being contested (one past the
	// claimant's current epoch).
	Epoch uint64
	// Site is the claimant's site ID.
	Site uint8
	// Cut is the claimant's last committed checkpoint cut (nil before
	// any commit).
	Cut vclock.VC
}

// Encode serializes the claim.
func (c ElectionClaim) Encode() []byte {
	b := make([]byte, 0, 1+8+1+c.Cut.EncodedSize())
	b = append(b, takeoverWireVersion)
	b = binary.LittleEndian.AppendUint64(b, c.Epoch)
	b = append(b, c.Site)
	b = c.Cut.AppendBinary(b)
	return b
}

// DecodeElectionClaim parses a claim payload, rejecting truncated or
// trailing bytes.
func DecodeElectionClaim(b []byte) (ElectionClaim, error) {
	var c ElectionClaim
	if len(b) < 10 {
		return c, fmt.Errorf("core: election claim truncated (%d bytes)", len(b))
	}
	if b[0] != takeoverWireVersion {
		return c, fmt.Errorf("core: election claim version %d", b[0])
	}
	c.Epoch = binary.LittleEndian.Uint64(b[1:])
	c.Site = b[9]
	cut, used, err := vclock.DecodeVC(b[10:])
	if err != nil {
		return c, fmt.Errorf("core: election claim cut: %w", err)
	}
	if 10+used != len(b) {
		return c, fmt.Errorf("core: election claim has %d trailing bytes", len(b)-10-used)
	}
	c.Cut = cut
	return c, nil
}

// Beats reports whether c wins the election against rival o for the
// same epoch: the higher committed cut wins (commit quorum spans every
// live participant, so each committed cut is covered by every
// survivor's state — any winner preserves committed events), with ties
// broken deterministically toward the lower site ID.
func (c ElectionClaim) Beats(o ElectionClaim) bool {
	cs, os := c.Cut.Sum(), o.Cut.Sum()
	if cs != os {
		return cs > os
	}
	return c.Site < o.Site
}

// --- The takeover node ----------------------------------------------------

// Takeover windows, in ticks: a candidate collects rival claims for
// electTicks; a loser waits Budget+deferSlack ticks for the winner's
// announcement before re-opening the election.
const (
	electTicks = 2
	deferSlack = 3
)

// TakeoverAll addresses a claim to every peer, or an announcement to
// every slot the promoted central still excludes.
const TakeoverAll = -1

// TakeoverInputKind names what a node reacts to: a detection interval,
// a probe verdict (Alive), an announcement (Ann) or a claim (Claim).
type TakeoverInputKind uint8

const (
	TakeoverTick TakeoverInputKind = iota
	TakeoverProbed
	TakeoverAnnounced
	TakeoverClaimed
)

// TakeoverInput is one input, with the site's view when it is stepped:
// its observed round watermark and its last committed cut.
type TakeoverInput struct {
	Kind      TakeoverInputKind
	LastRound uint64
	Cut       vclock.VC
	Alive     bool
	Ann       TakeoverAnnouncement
	Claim     ElectionClaim
}

// TakeoverEffectKind names what a node asks its driver to do: probe the
// central and step the verdict back in; send Claim to peer To; adopt
// the site's state as the central of Epoch; follow Ann — repoint the
// uplink to Ann.Addr if Repoint, then request re-admission from the
// site's rejoin cut; announce this promoted site to slot To. To may be
// TakeoverAll.
type TakeoverEffectKind uint8

const (
	TakeoverProbe TakeoverEffectKind = iota
	TakeoverSendClaim
	TakeoverPromote
	TakeoverFollow
	TakeoverAnnounce
)

// TakeoverEffect is one effect of a Takeover step.
type TakeoverEffect struct {
	Kind    TakeoverEffectKind
	To      int
	Epoch   uint64
	Claim   ElectionClaim
	Ann     TakeoverAnnouncement
	Repoint bool
}

type takeoverRole uint8

const (
	roleFollower takeoverRole = iota
	roleCandidate
	rolePromoted
)

// Takeover is one mirror site's takeover state machine. Set Site, Peers
// (the manifest size), Standby and Budget (ticks without a new round
// tolerated before a liveness probe, <= 0 uses 1; align it with the
// Membership miss budget) before the first Step. Drivers serialize
// Step and Info.
type Takeover struct {
	Site, Peers int
	Standby     bool
	Budget      int

	role   takeoverRole
	prev   uint64 // round watermark at the last new round
	missed int    // past the budget while a probe is out
	// epoch/addr fence announcements: the first accepted per epoch wins.
	epoch uint64
	addr  string
	// Candidacy: own claim, best rival claim and whether it was answered
	// this tick per epoch, round watermark at failure, ticks to decide.
	mine       ElectionClaim
	best       map[uint64]ElectionClaim
	replied    map[uint64]bool
	firedRound uint64
	wait       int
	deferring  bool
}

// Step feeds one input to the node and returns the effects the driver
// must carry out, in order.
func (t *Takeover) Step(in TakeoverInput) []TakeoverEffect {
	switch in.Kind {
	case TakeoverTick:
		clear(t.replied)
		return t.tick(in)
	case TakeoverProbed:
		return t.probed(in)
	case TakeoverAnnounced:
		return t.announced(in)
	case TakeoverClaimed:
		return t.claimed(in)
	}
	return nil
}

// curEpoch is the highest central epoch the site knows: from accepted
// announcements or from the epoch partition of its observed rounds.
func (t *Takeover) curEpoch(lastRound uint64) uint64 {
	return max(t.epoch, lastRound>>checkpoint.EpochShift)
}

// rearm restarts failure detection against the current central.
func (t *Takeover) rearm() {
	t.role, t.prev, t.missed = roleFollower, 0, 0
}

func (t *Takeover) tick(in TakeoverInput) []TakeoverEffect {
	switch {
	case t.role == rolePromoted:
		// The re-admission heartbeat: a survivor excluded at any later
		// time hears the announcement again.
		return []TakeoverEffect{{Kind: TakeoverAnnounce, To: TakeoverAll}}
	case t.role == roleCandidate:
		return t.candidateTick(in)
	case t.missed > max(t.Budget, 1) || (in.LastRound == 0 && t.epoch == 0):
		// A probe is out, or there is no heartbeat to miss yet: a mirror
		// hears no round before its central admits it.
		return nil
	case in.LastRound > t.prev:
		t.prev, t.missed = in.LastRound, 0
		return nil
	}
	if t.missed++; t.missed <= max(t.Budget, 1) {
		return nil
	}
	// Rounds only advance with traffic: an idle central is told from a
	// dead one by whether it still accepts connections.
	return []TakeoverEffect{{Kind: TakeoverProbe}}
}

func (t *Takeover) probed(in TakeoverInput) []TakeoverEffect {
	if t.role != roleFollower || t.missed <= max(t.Budget, 1) {
		return nil // no probe is out: an announcement re-armed detection
	}
	if in.Alive {
		t.rearm()
		return nil
	}
	epoch := t.curEpoch(in.LastRound) + 1
	if t.Standby {
		return t.promote(epoch)
	}
	t.role, t.firedRound, t.wait, t.deferring = roleCandidate, in.LastRound, electTicks, false
	t.mine = ElectionClaim{Epoch: epoch, Site: uint8(t.Site), Cut: in.Cut}
	return []TakeoverEffect{{Kind: TakeoverSendClaim, To: TakeoverAll, Claim: t.mine}}
}

func (t *Takeover) candidateTick(in TakeoverInput) []TakeoverEffect {
	// Rounds resuming in the pre-election epoch prove the central alive.
	if in.LastRound > t.firedRound && in.LastRound>>checkpoint.EpochShift == t.mine.Epoch-1 {
		t.rearm()
		return nil
	}
	if t.wait--; t.wait > 0 {
		return nil
	}
	if t.deferring {
		// The better-placed rival never announced (it may have died
		// too). Forget it — live rivals re-assert on seeing the new
		// claim — and re-open the election.
		delete(t.best, t.mine.Epoch)
		t.mine.Cut, t.wait, t.deferring = in.Cut, electTicks, false
		return []TakeoverEffect{{Kind: TakeoverSendClaim, To: TakeoverAll, Claim: t.mine}}
	}
	if rival, ok := t.best[t.mine.Epoch]; ok && !t.mine.Beats(rival) {
		t.wait, t.deferring = max(t.Budget, 1)+deferSlack, true
		return nil
	}
	return t.promote(t.mine.Epoch)
}

// promote takes the central role and announces it at once.
func (t *Takeover) promote(epoch uint64) []TakeoverEffect {
	t.role, t.epoch, t.addr = rolePromoted, epoch, ""
	return []TakeoverEffect{{Kind: TakeoverPromote, Epoch: epoch}, {Kind: TakeoverAnnounce, To: TakeoverAll}}
}

// announced is the survivor side: fence the epoch, then follow.
func (t *Takeover) announced(in TakeoverInput) []TakeoverEffect {
	ann := in.Ann
	switch {
	case t.role == rolePromoted:
		return nil
	case ann.Epoch <= in.LastRound>>checkpoint.EpochShift || ann.Epoch < t.epoch:
		return nil // stale: the site already runs in a same-or-newer epoch
	case ann.Epoch == t.epoch && ann.Addr != t.addr:
		return nil // split-brain fencing: the epoch has another central
	case ann.Epoch == t.epoch:
		// A retry of the accepted takeover: the first rejoin request
		// may have been lost.
		return []TakeoverEffect{{Kind: TakeoverFollow, Ann: ann}}
	}
	t.rearm()
	t.epoch, t.addr = ann.Epoch, ann.Addr
	return []TakeoverEffect{{Kind: TakeoverFollow, Ann: ann, Repoint: true}}
}

// claimed records a rival's claim and answers with this site's own
// standing, at most once per epoch per tick, so a candidate's decision
// sees every live peer even before that peer's own detector fires.
func (t *Takeover) claimed(in TakeoverInput) []TakeoverEffect {
	c := in.Claim
	switch {
	case int(c.Site) == t.Site:
		return nil
	case t.role == rolePromoted && c.Epoch <= t.epoch && int(c.Site) < t.Peers:
		// A late candidate did not hear the takeover yet: answering with
		// the announcement stands it down inside its election window.
		return []TakeoverEffect{{Kind: TakeoverAnnounce, To: int(c.Site)}}
	case t.role == rolePromoted || c.Epoch <= t.curEpoch(in.LastRound):
		return nil
	}
	if t.best == nil {
		t.best, t.replied = make(map[uint64]ElectionClaim), make(map[uint64]bool)
	}
	if best, ok := t.best[c.Epoch]; !ok || c.Beats(best) {
		t.best[c.Epoch] = c
	}
	if int(c.Site) >= t.Peers || t.replied[c.Epoch] {
		return nil
	}
	t.replied[c.Epoch] = true
	reply := ElectionClaim{Epoch: c.Epoch, Site: uint8(t.Site), Cut: in.Cut}
	return []TakeoverEffect{{Kind: TakeoverSendClaim, To: int(c.Site), Claim: reply}}
}

// TakeoverInfo is a node's status view. Role is "standby" or
// "follower", "candidate" during an election, or "promoted".
type TakeoverInfo struct {
	Role           string
	Budget, Missed int
	Epoch          uint64
}

// Info returns the node's status view.
func (t *Takeover) Info() TakeoverInfo {
	role := [...]string{"follower", "candidate", "promoted"}[t.role]
	if t.role == roleFollower && t.Standby {
		role = "standby"
	}
	return TakeoverInfo{Role: role, Budget: t.Budget, Missed: t.missed, Epoch: t.epoch}
}
