package core

import (
	"errors"
	"fmt"
	"sync"

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
// Who votes and who is live is the checkpoint coordinator's to decide
// (checkpoint.Coordinator.Exclude/Admit/Alive, with the detector
// NewMembership installs); Membership is the public handle on it plus
// the rejoin transfer. Site identity travels in the Stream field of
// checkpoint replies (unused for control events): mirrors stamp their
// assigned SiteID, which is their slot in CentralConfig.Mirrors.

// MembershipConfig tunes the failure detector.
type MembershipConfig struct {
	// MissedRounds is the number of consecutive checkpoint rounds a
	// live mirror may let start without replying before the next round
	// excludes it (default 8, for in-process use: over loopback TCP
	// healthy mirrors missed up to 19 in a row under a saturating feed,
	// 7 at a steady 50k events/s and 6 beside an init-request storm, so
	// wire centrals run a larger budget). It is the coordinator's miss
	// budget and the only way to set it.
	MissedRounds int
	// OnFailure, when non-nil, is told the excluded mirror's index, for
	// automatic exclusions and Exclude alike. It runs before the CHKPT
	// of the round that excluded the mirror goes out.
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

	mu        sync.Mutex
	rejoining []bool // excluded mirrors with a rejoin transfer in flight
}

// ErrNotExcluded is what Rejoin and RejoinSince return for a mirror
// that is admitted or already has a rejoin in flight.
var ErrNotExcluded = errors.New("core: mirror is not excluded")

// NewMembership installs a failure detector on c's coordinator and
// makes it c's Membership. A detector installed over another takes
// over at the next round; the live set carries over.
func NewMembership(c *Central, cfg MembershipConfig) *Membership {
	if cfg.MissedRounds <= 0 {
		cfg.MissedRounds = 8
	}
	m := &Membership{
		central:   c,
		cfg:       cfg,
		rejoining: make([]bool, len(c.cfg.Mirrors)),
	}
	c.coord.Detect(cfg.MissedRounds, cfg.OnFailure)
	c.membership.Store(m)
	return m
}

// Alive reports whether mirror i is admitted: it receives mirrored
// events and votes in the commit quorum.
func (m *Membership) Alive(i int) bool { return m.central.coord.Alive(i) }

// Failed returns the indices of excluded mirrors.
func (m *Membership) Failed() []int {
	var out []int
	for i := range m.central.cfg.Mirrors {
		if !m.Alive(i) {
			out = append(out, i)
		}
	}
	return out
}

// Live returns the number of admitted mirrors.
func (m *Membership) Live() int { return len(m.central.cfg.Mirrors) - len(m.Failed()) }

// Exclude forcibly removes mirror i from mirroring and the commit
// quorum, as if it had exhausted the miss budget. Every wire central
// starts with each mirror excluded this way — a promoted one keeps its
// own slot so — and re-admits a mirror through RejoinSince when it asks,
// first excluding a live one whose request shows it restarted.
// Excluding an already-excluded mirror is a no-op.
func (m *Membership) Exclude(i int) error {
	if i < 0 || i >= len(m.rejoining) {
		return fmt.Errorf("core: no mirror %d", i)
	}
	m.central.coord.Exclude(i)
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
// converges byte-for-byte; of concurrent calls, one transfers.
func (m *Membership) RejoinSince(i int, cut vclock.VC) (replayed int, err error) {
	if i < 0 || i >= len(m.rejoining) {
		return 0, fmt.Errorf("core: no mirror %d", i)
	}
	m.mu.Lock()
	if m.Alive(i) || m.rejoining[i] {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: mirror %d", ErrNotExcluded, i)
	}
	m.rejoining[i] = true
	m.mu.Unlock()

	n, err := m.central.recoverMirrorAndReadmit(i, cut)

	m.mu.Lock()
	m.rejoining[i] = false
	m.mu.Unlock()
	if err != nil {
		return n, err
	}
	if m.cfg.OnRejoin != nil {
		m.cfg.OnRejoin(i)
	}
	return n, nil
}

// Membership returns the central's current failure detector, or nil.
func (c *Central) Membership() *Membership { return c.membership.Load() }
