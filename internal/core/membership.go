package core

import (
	"fmt"
	"sync"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// Membership extends the framework with mirror-site failure handling,
// the server half of the recovery support the paper lists as future
// work. The paper's checkpoint protocol has no timeouts — a silent
// mirror simply stalls commits forever ("if a mirror site fails, these
// events have already been processed by all main units"). Membership
// adds the operational complement: a mirror that misses too many
// consecutive checkpoint rounds is excluded from mirroring and from
// the commit quorum so the healthy sites keep trimming their backup
// queues; a recovered site is re-admitted through a state-snapshot +
// backup-replay transfer (RecoverMirror) and rejoins the quorum.
//
// Site identity travels in the Stream field of checkpoint replies
// (unused for control events): mirrors stamp their assigned SiteID.

// MembershipConfig tunes the failure detector.
type MembershipConfig struct {
	// MissedRounds is the number of consecutive checkpoint rounds a
	// mirror may miss before being excluded (default 8).
	MissedRounds int
	// OnFailure, when non-nil, is told the excluded mirror's index.
	OnFailure func(site int)
	// OnRejoin, when non-nil, is told the re-admitted mirror's index.
	OnRejoin func(site int)
}

// Membership is the central-site failure detector and admission
// controller. Create it with NewMembership after constructing the
// Central.
type Membership struct {
	central *Central
	cfg     MembershipConfig

	mu     sync.Mutex
	missed []int  // consecutive rounds without a reply, per mirror
	failed []bool // excluded mirrors
	live   int
}

// NewMembership attaches a failure detector to c. It hooks the
// coordinator's round lifecycle, so call it before traffic starts.
func NewMembership(c *Central, cfg MembershipConfig) *Membership {
	if cfg.MissedRounds <= 0 {
		cfg.MissedRounds = 8
	}
	m := &Membership{
		central: c,
		cfg:     cfg,
		missed:  make([]int, len(c.cfg.Mirrors)),
		failed:  make([]bool, len(c.cfg.Mirrors)),
		live:    len(c.cfg.Mirrors),
	}
	c.setMembership(m)
	return m
}

// onRoundStart counts a round against every live mirror and excludes
// those that exceeded the miss budget.
func (m *Membership) onRoundStart() {
	m.mu.Lock()
	var newlyFailed []int
	for i := range m.missed {
		if m.failed[i] {
			continue
		}
		m.missed[i]++
		if m.missed[i] > m.cfg.MissedRounds {
			m.failed[i] = true
			m.live--
			newlyFailed = append(newlyFailed, i)
		}
	}
	live := m.live
	m.mu.Unlock()

	if len(newlyFailed) > 0 {
		// Quorum shrinks: live mirrors + the central main unit.
		m.central.coord.SetParticipants(live + 1)
		if m.cfg.OnFailure != nil {
			for _, i := range newlyFailed {
				m.cfg.OnFailure(i)
			}
		}
	}
}

// onReply resets the miss counter for the replying site.
func (m *Membership) onReply(site int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if site < 0 || site >= len(m.missed) || m.failed[site] {
		return
	}
	m.missed[site] = 0
}

// Alive reports whether mirror i is admitted: it receives mirrored
// events and votes in the commit quorum.
func (m *Membership) Alive(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return i < len(m.failed) && !m.failed[i]
}

// Failed returns the indices of excluded mirrors.
func (m *Membership) Failed() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i, f := range m.failed {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// Live returns the number of admitted mirrors.
func (m *Membership) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// Exclude forcibly removes mirror i from mirroring and the commit
// quorum, as if it had exhausted the miss budget. Promotion bootstrap
// uses it: a freshly promoted central starts with every mirror
// excluded — the standby's own slot stays that way, survivors are
// re-admitted through RejoinSince with their own committed cuts.
// Excluding an already-excluded mirror is a no-op.
func (m *Membership) Exclude(i int) error {
	m.mu.Lock()
	if i < 0 || i >= len(m.failed) {
		m.mu.Unlock()
		return fmt.Errorf("core: no mirror %d", i)
	}
	if m.failed[i] {
		m.mu.Unlock()
		return nil
	}
	m.failed[i] = true
	m.missed[i] = 0
	m.live--
	live := m.live
	m.mu.Unlock()

	m.central.coord.SetParticipants(live + 1)
	if m.cfg.OnFailure != nil {
		m.cfg.OnFailure(i)
	}
	return nil
}

// Rejoin re-admits mirror i after transferring the central state
// snapshot (with its consistency cut) and the retained backup events
// through the mirror's fan-out sender. The transfer and the liveness
// flip happen atomically with respect to the live fan-out — no batch
// can slip between the replayed history and the first post-rejoin
// drain — so the recovered replica converges to the central state
// byte-for-byte even while traffic is flowing. The site rejoins the
// commit quorum at the next checkpoint round.
func (m *Membership) Rejoin(i int) (replayed int, err error) {
	return m.RejoinSince(i, nil)
}

// RejoinSince is Rejoin with cut negotiation: cut is the rejoiner's
// last committed checkpoint cut (its backup queue's Committed
// watermark), nil when the site lost all state. A cut within the
// central mutation journal's horizon turns the state transfer into a
// per-flight delta of exactly what the rejoiner missed; anything else
// falls back to the full snapshot. Either way the recovered replica
// converges byte-for-byte.
func (m *Membership) RejoinSince(i int, cut vclock.VC) (replayed int, err error) {
	m.mu.Lock()
	if i < 0 || i >= len(m.failed) {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: no mirror %d", i)
	}
	if !m.failed[i] {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: mirror %d is not excluded", i)
	}
	m.mu.Unlock()

	n, err := m.central.recoverMirrorAndReadmit(i, cut, func() {
		m.mu.Lock()
		m.failed[i] = false
		m.missed[i] = 0
		m.live++
		m.mu.Unlock()
	})
	if err != nil {
		return n, err
	}

	m.mu.Lock()
	live := m.live
	m.mu.Unlock()
	m.central.coord.SetParticipants(live + 1)
	if m.cfg.OnRejoin != nil {
		m.cfg.OnRejoin(i)
	}
	return n, nil
}

// --- Central hooks ------------------------------------------------------

// setMembership installs the detector (central side).
func (c *Central) setMembership(m *Membership) {
	c.memberMu.Lock()
	c.membership = m
	c.memberMu.Unlock()
}

func (c *Central) membershipHandle() *Membership {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	return c.membership
}

// mirrorAlive reports whether mirror i should receive traffic.
func (c *Central) mirrorAlive(i int) bool {
	m := c.membershipHandle()
	return m == nil || m.Alive(i)
}

// noteRoundStart and noteReply forward protocol lifecycle to the
// detector.
func (c *Central) noteRoundStart() {
	if m := c.membershipHandle(); m != nil {
		m.onRoundStart()
	}
}

func (c *Central) noteReply(e *event.Event) {
	if m := c.membershipHandle(); m != nil {
		m.onReply(int(e.Stream))
	}
}
