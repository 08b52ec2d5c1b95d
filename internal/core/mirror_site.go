package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/vclock"
)

// MirrorSiteConfig parameterizes a mirror site.
type MirrorSiteConfig struct {
	// Main configures the site's main unit (EDE replica).
	Main MainConfig
	// Model is the CPU cost model for control-event handling.
	Model costmodel.Model
	// CPU is the mirror node's virtual processor, shared by its
	// auxiliary and main units. Nil spins the real CPU.
	CPU *costmodel.CPU
	// CtrlUp sends control events to the central site (checkpoint
	// replies with piggybacked monitor samples).
	CtrlUp Sender
	// SiteID identifies this mirror at the central site (its index in
	// the central's Mirrors slice); it is stamped into the Stream
	// field of control replies for membership tracking.
	SiteID uint8
	// OnPiggyback, when non-nil, receives adaptation bytes attached to
	// CHKPT events by the central site (or carried by standalone and
	// recovery-snapshot TypeAdapt events), with the checkpoint round
	// that stamped them.
	OnPiggyback func(round uint64, payload []byte)
	// Obs, when non-nil, exports the site's queue depths and counters,
	// labeled with Site (default "mirror<SiteID>").
	Obs  *obs.Registry
	Site string
	// Tracer, when non-nil, receives the site's mirror-apply latencies
	// (central ingress → replica EDE emission).
	Tracer *obs.Tracer
	// Standby arms this site as a warm-standby central: its EDE journals
	// mutations and seals every committed checkpoint cut, so that after
	// Promote the adopted state can serve cut-anchored rejoin deltas to
	// surviving mirrors exactly as the old central did.
	Standby bool
}

// MirrorSite is a secondary mirror: its auxiliary unit receives
// mirrored events, retains them in a backup queue until checkpoint
// commit, and delivers them to the local main unit, whose replicated
// state serves client initialization requests. The main unit's inbound
// queue is the site's ready queue — the one place its backlog waits.
type MirrorSite struct {
	cfg    MirrorSiteConfig
	backup *queue.Backup
	main   *MainUnit
	aux    *checkpoint.Mirror

	received atomic.Uint64

	// arrivalHigh is the highest event timestamp ever admitted on the
	// data path. The central receiving task stamps a totally ordered
	// timestamp sequence, so anything at or below the watermark has
	// already been seen: re-deliveries — the overlap between a recovery
	// snapshot's cut and its backup replay, or stale fan-out batches
	// drained after a recovery block — are dropped before they touch
	// the backup queue or the EDE. That keeps the backup queue
	// append-ordered and event application exactly-once, which the
	// non-idempotent counting rules (position updates, boardings) need
	// for replicas to converge byte-for-byte.
	dedupMu     sync.Mutex
	arrivalHigh vclock.VC

	// batchMu serializes the owned-batch apply path so its scratch
	// slices survive across the dedupMu window (queue bookings happen
	// after dedupMu is dropped, so dedupMu alone cannot guard them).
	// It also guards closed, which Drain sets: a batch is either booked
	// whole before the site drains or refused whole.
	batchMu       sync.Mutex
	closed        bool
	scratchBackup []*event.Event
	scratchReady  []*event.Event
	scratchDirs   []*event.Event

	// regime bookkeeping: the adaptation regime installed at this site
	// (via piggybacked directives) — the configuration a promoted
	// replacement central would start from.
	regimeMu        sync.Mutex
	regimeID        uint8
	regimeParams    Params
	regimeOverwrite int

	// lastRound is the highest checkpoint/directive round observed on
	// this site's control path — the watermark a promoted coordinator
	// must restamp rounds above (missed-round failure detection reads
	// it too).
	lastRound atomic.Uint64

	// detached flips when Promote hands the main unit to a new central;
	// Drain and Close then leave the unit alone (its new owner keeps
	// delivering into it, and closes it).
	detached atomic.Bool
}

// NewMirrorSite builds and starts a mirror site.
func NewMirrorSite(cfg MirrorSiteConfig) *MirrorSite {
	cfg.Main.EDE.CPU = cfg.CPU
	if cfg.Site == "" {
		cfg.Site = fmt.Sprintf("mirror%d", cfg.SiteID)
	}
	cfg.Main.Obs = cfg.Obs
	cfg.Main.Site = cfg.Site
	cfg.Main.Tracer = cfg.Tracer
	cfg.Main.TraceMirror = true
	m := &MirrorSite{
		cfg:    cfg,
		backup: queue.NewBackup(),
		main:   NewMainUnit(cfg.Main),
	}
	if cfg.Standby {
		// Warm standby: journal mutations from the first event so the
		// state adopted at promotion can serve rejoin deltas. Seals are
		// added as this site learns commits (the Commit closure below).
		m.main.Engine().State().EnableJournal(ede.DefaultJournalHorizon, nil)
	}
	site := obs.L("site", cfg.Site)
	cfg.Obs.Func(famReadyDepth, func() float64 { return float64(m.main.QueueLen()) }, site)
	registerBackup(cfg.Obs, m.backup, site)
	cfg.Obs.Func(famMirrorReceived, obs.Load(&m.received), site)
	cfg.Obs.Func(famMirrorApplyLag, func() float64 { return float64(m.main.ApplyLagMicros()) }, site)
	mainPart := &checkpoint.Main{
		LastProcessed: m.main.LastProcessed,
	}
	m.aux = &checkpoint.Mirror{
		ToMain: func(e *event.Event) { mainPart.OnControl(e) },
		ToCentral: func(e *event.Event) {
			// Piggyback the site's monitored variables on the reply
			// so central adaptation sees this site's load, and stamp
			// the site identity for membership tracking.
			e.Payload = EncodeSample(m.Sample())
			e.Stream = cfg.SiteID
			if cfg.CtrlUp != nil {
				_ = cfg.CtrlUp.Submit(e)
			}
		},
		Commit: func(ts vclock.VC) {
			m.backup.Commit(ts)
			if cfg.Standby {
				// Every committed cut is a position a survivor may later
				// rejoin the promoted central from.
				m.main.Engine().State().SealCut(ts)
			}
		},
		OnPiggyback: cfg.OnPiggyback,
	}
	// The main unit's checkpoint replies flow back through the aux
	// state machine (Figure 3: main sends chkpt_rep to aux, aux
	// forwards to central).
	mainPart.Reply = func(e *event.Event) { m.aux.OnControl(e) }
	return m
}

// Main exposes the site's main unit.
func (m *MirrorSite) Main() *MainUnit { return m.main }

// Backup exposes the site's backup queue.
func (m *MirrorSite) Backup() *queue.Backup { return m.backup }

// isRecoveryTransfer reports whether e carries a recovery state
// transfer — full snapshot or incremental delta. Both replace history
// rather than extend it, so neither belongs in the backup queue.
func isRecoveryTransfer(e *event.Event) bool {
	return e.Type == event.TypeRecoveryState || e.Type == event.TypeRecoveryDelta
}

// admit checks one arriving event against the arrival watermark,
// advancing it on acceptance. Caller holds dedupMu. Unstamped events
// (nil VT — unit tests, out-of-band traffic) bypass the watermark.
//
// Recovery transfers RESET the watermark to their cut instead of
// merging: a transfer re-anchors the whole replica at its consistency
// point, and after a central promotion the new anchor can sit below a
// survivor's watermark (the survivor admitted uncommitted events the
// standby's cut does not cover). Merging would make the survivor
// reject the transfer and then silently dedup the promoted central's
// fresh events, whose resumed clock stamps collide with timestamps the
// survivor has already seen. Resetting is safe: anything at or below
// the new anchor is in the transferred state by construction, replayed
// backup events above it still merge forward, and the failed central's
// in-flight traffic never races the reset because its links are down
// before a promotion starts.
func (m *MirrorSite) admit(e *event.Event) bool {
	if e.VT == nil {
		return true
	}
	if isRecoveryTransfer(e) {
		m.arrivalHigh = e.VT.Clone()
		return true
	}
	if e.VT.LessEq(m.arrivalHigh) {
		return false
	}
	// In-place merge: the watermark owns its backing and never aliases
	// arriving events, so steady-state admission allocates nothing.
	m.arrivalHigh = m.arrivalHigh.MergeInto(e.VT)
	return true
}

// ArrivalHigh returns a copy of the arrival watermark: the highest
// event timestamp admitted on the data path. A promoted central
// resumes its stamping clock from here.
func (m *MirrorSite) ArrivalHigh() vclock.VC {
	m.dedupMu.Lock()
	defer m.dedupMu.Unlock()
	return m.arrivalHigh.Clone()
}

// noteRound advances the observed-round watermark.
func (m *MirrorSite) noteRound(seq uint64) {
	for {
		cur := m.lastRound.Load()
		if seq <= cur || m.lastRound.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// LastRound returns the highest checkpoint or directive round this
// site has observed from the central. A standby monitor polls it to
// detect missed rounds; a promoted coordinator resumes above it.
func (m *MirrorSite) LastRound() uint64 { return m.lastRound.Load() }

// HandleData accepts one heap-owned mirrored event — a per-event
// frame arriving on the data channel — as a batch of one.
func (m *MirrorSite) HandleData(e *event.Event) {
	_ = m.HandleOwnedBatch([]*event.Event{e}, nil)
}

// HandleOwnedBatch is the site's data-path entry point (the receiving
// end of core.DataSender): it accepts a batch of mirrored events from
// the central site. Re-delivered events (at or below the arrival
// watermark) count as received but are otherwise dropped; recovery
// transfers skip the backup queue (they are not mirrored history, they
// replace it); adaptation directives (recovery blocks carry one) go
// straight to the piggyback hook, applied synchronously while the
// caller's borrow keeps the slab live, never near the queues.
//
// With a non-nil ref the events are pooled views borrowing from slabs
// it guards. No payload is copied: admitted events enter the backup
// queue and the main unit's queue as-is, and the backup queue takes a
// retained reference that it drops when a checkpoint commit trims past
// the batch. That trim is the proof the views are dead — the commit cut
// folds in this site's own last-processed reply, so everything trimmed
// has already cleared the main unit's queue and the EDE. Nothing would
// pin a recovery transfer's slab while it waits there, so it is
// deep-cloned off it (a cold path — recovery only). With a nil ref the
// events are heap-owned and are queued as they are. Either way the
// site retains events, never the slice. After Drain it returns
// ErrUnitClosed and books nothing.
func (m *MirrorSite) HandleOwnedBatch(events []*event.Event, ref event.Ref) error {
	if len(events) == 0 {
		return nil
	}
	m.batchMu.Lock()
	defer m.batchMu.Unlock()
	if m.closed {
		return ErrUnitClosed
	}
	toBackup := m.scratchBackup[:0]
	toReady := m.scratchReady[:0]
	dirs := m.scratchDirs[:0]
	var rebase vclock.VC
	m.dedupMu.Lock()
	for _, e := range events {
		if e.Type == event.TypeAdapt {
			m.noteRound(e.Seq)
			dirs = append(dirs, e)
			continue
		}
		if !m.admit(e) {
			continue
		}
		if isRecoveryTransfer(e) {
			// History replacement: drop what this batch retained so far
			// and rebase the backup below.
			rebase = e.VT
			toBackup = toBackup[:0]
			if ref != nil {
				e = e.Clone()
			}
			toReady = append(toReady, e)
			continue
		}
		toBackup = append(toBackup, e)
		toReady = append(toReady, e)
	}
	m.dedupMu.Unlock()
	if rebase != nil {
		m.backup.Rebase(rebase)
	}
	// Backup first: once the main unit can see an event it must already
	// be backed up, or a crash between the two bookings would lose
	// acknowledged history.
	if len(toBackup) > 0 {
		if ref != nil {
			ref.Retain()
			m.backup.AppendOwnedBatch(toBackup, ref.Release)
		} else {
			m.backup.AppendBatch(toBackup)
		}
	}
	err := m.main.DeliverBatch(toReady)
	// Counted only now: whoever waits on Received() before draining the
	// site must find the events already queued, not about to be.
	m.received.Add(uint64(len(events)))
	if m.cfg.OnPiggyback != nil {
		for _, e := range dirs {
			if len(e.Payload) > 0 {
				m.cfg.OnPiggyback(e.Seq, e.Payload)
			}
		}
	}
	// Zero the scratches so they do not pin retired slabs against the
	// collector between batches. (Anything past len was zeroed by the
	// wider call that wrote it.)
	clear(toBackup)
	clear(toReady)
	clear(dirs)
	m.scratchBackup = toBackup[:0]
	m.scratchReady = toReady[:0]
	m.scratchDirs = dirs[:0]
	return err
}

// HandleControl accepts one control event from the central site.
// CHKPT and COMMIT handling scans the local backup queue (answering
// the proposal, trimming on commit), so their cost grows with the
// site's backlog — the mechanism that makes checkpointing frequency
// matter under load (paper Figure 7).
func (m *MirrorSite) HandleControl(e *event.Event) {
	cost := m.cfg.Model.ControlCost
	if e.Type == event.TypeChkpt || e.Type == event.TypeCommit {
		m.noteRound(e.Seq)
		// Answering a proposal and trimming on commit scan the local
		// backup queue.
		cost += time.Duration(m.backup.Len()) * m.cfg.Model.CheckpointPerBacklog
	}
	m.cfg.CPU.ChargeAsync(cost)
	m.aux.OnControl(e)
}

// Sample returns the site's monitored variables, including the
// smoothed apply lag the site piggybacks to central adaptation. Ready
// is the whole backlog of admitted events the EDE has not applied.
func (m *MirrorSite) Sample() Sample {
	return Sample{
		Ready:    m.main.QueueLen(),
		Backup:   m.backup.Len(),
		Pending:  m.main.PendingRequests(),
		ApplyLag: m.main.ApplyLagMicros(),
	}
}

// SetRegime records the adaptation regime installed at this site: the
// wire ID plus the mirror-relevant parameters. Mirrors do not run the
// sending task, so the parameters are bookkeeping — the configuration
// a promoted replacement central would start from — while the ID
// feeds the per-site adapt_regime_id gauge and the chaos harness's
// regime-convergence invariant.
func (m *MirrorSite) SetRegime(id uint8, p Params, overwriteLen int) {
	m.regimeMu.Lock()
	m.regimeID = id
	m.regimeParams = p
	m.regimeOverwrite = overwriteLen
	m.regimeMu.Unlock()
}

// Regime returns the recorded adaptation regime (zero values until a
// directive has been installed).
func (m *MirrorSite) Regime() (id uint8, p Params, overwriteLen int) {
	m.regimeMu.Lock()
	defer m.regimeMu.Unlock()
	return m.regimeID, m.regimeParams, m.regimeOverwrite
}

// Received returns the number of mirrored events accepted.
func (m *MirrorSite) Received() uint64 { return m.received.Load() }

// Processed returns the weighted number of events applied by the EDE.
func (m *MirrorSite) Processed() uint64 { return m.main.Processed() }

// Drain stops accepting data events and blocks until every received
// event has been processed by the EDE. Control handling and request
// serving stay available until Close. A site whose main unit was
// adopted by a promoted central (Promote) only stops accepting: the
// unit must keep taking its new owner's deliveries.
func (m *MirrorSite) Drain() {
	m.batchMu.Lock()
	m.closed = true
	m.batchMu.Unlock()
	if !m.detached.Load() {
		m.main.DrainEvents()
	}
}

// Close drains the site and shuts its main unit down, unless the unit
// was adopted (Promote) and belongs to its new owner. It is idempotent.
func (m *MirrorSite) Close() {
	m.Drain()
	if !m.detached.Load() {
		m.main.Close()
	}
}
