package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/vclock"
)

// Warm-standby central promotion. The paper's architecture hangs every
// mirror, the checkpoint coordinator, and the directive publisher off
// one central site; this file implements the failover path that keeps
// the cluster alive when that site dies. A designated standby mirror
// (config-ordered: the lowest-indexed live mirror) detects the failure
// through missed checkpoint rounds (StandbyMonitor), captures its local
// view (MirrorSite.Promote), and a new Central built with
// CentralConfig.Resume takes over:
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
//     starts excluded, then RejoinSince re-admits each survivor from
//     its own committed cut.

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

// StandbyMonitor is the failure detector a standby mirror runs against
// its own control path: the central is presumed failed after Budget+1
// consecutive detection intervals without a new checkpoint round.
// Drive Tick once per expected round interval — from a wall-clock
// ticker in a deployment, or deterministically from a test harness.
type StandbyMonitor struct {
	// LastRound reads the observed round watermark (MirrorSite.LastRound).
	LastRound func() uint64
	// Budget is how many consecutive missed intervals are tolerated
	// (<= 0 uses 1): one more declares failure. Align it with the
	// Membership miss budget so the standby never declares a central
	// dead faster than the central would declare a mirror dead.
	Budget int

	mu     sync.Mutex
	prev   uint64
	missed int
	fired  bool
}

// NewStandbyMonitor returns a monitor polling lastRound with the given
// miss budget.
func NewStandbyMonitor(lastRound func() uint64, budget int) *StandbyMonitor {
	if budget <= 0 {
		budget = 1
	}
	return &StandbyMonitor{LastRound: lastRound, Budget: budget}
}

// Tick observes one detection interval and reports whether central
// failure is (now or already) declared. An interval that saw a new
// round resets the miss streak; one that did not extends it.
func (s *StandbyMonitor) Tick() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired {
		return true
	}
	cur := s.LastRound()
	if cur > s.prev {
		s.prev = cur
		s.missed = 0
		return false
	}
	s.missed++
	if s.missed > s.Budget {
		s.fired = true
	}
	return s.fired
}

// Missed returns the current consecutive-miss streak.
func (s *StandbyMonitor) Missed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.missed
}

// Fired reports whether failure has been declared.
func (s *StandbyMonitor) Fired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// --- Wire takeover protocol ---------------------------------------------
//
// The in-process promotion above becomes a deployed-cluster protocol
// with two control frames carried on the existing mirror-to-mirror
// channels (every mirrord site exports a ctrl.down channel any peer can
// dial):
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

// TakeoverStats are the wire-takeover runtime's counters, registered
// once per site via RegisterTakeoverMetrics so the series exist at zero
// from boot.
type TakeoverStats struct {
	// Fired counts central-failure declarations by this site's monitor.
	Fired atomic.Uint64
	// Repoints counts ctrl.up uplink swings to a promoted address.
	Repoints atomic.Uint64
	// Claims counts election claims sent or received by this site.
	Claims atomic.Uint64
}

// RegisterTakeoverMetrics exports a site's wire-takeover counters on r
// (nil-safe) and returns the stats sink the runtime increments.
func RegisterTakeoverMetrics(r *obs.Registry, site string) *TakeoverStats {
	s := &TakeoverStats{}
	l := obs.L("site", site)
	r.Func(famTakeoverFired, obs.Load(&s.Fired), l)
	r.Func(famUplinkRepoints, obs.Load(&s.Repoints), l)
	r.Func(famElectionClaims, obs.Load(&s.Claims), l)
	return s
}
