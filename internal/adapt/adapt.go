// Package adapt implements the paper's runtime adaptation mechanism
// (Section 3.2.2): monitored variables — ready/backup queue lengths
// and the pending client request buffer — each carry a primary and a
// secondary threshold set through set_monitor_values(). When a
// monitored value reaches its primary threshold, the mirroring
// algorithm is modified (a different mirroring function or parameter
// set is installed); the original mechanism is reinstalled when the
// value falls below primary - secondary. Decisions are made at the
// central site so all mirrors adapt identically, and directives travel
// piggybacked on checkpoint messages, stamped with the checkpoint
// round so duplicated or reordered deliveries cannot roll a site back
// to a stale regime.
package adapt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"adaptmirror/internal/core"
	"adaptmirror/internal/obs"
)

// Var identifies a monitored variable (the index argument of
// set_monitor_values).
type Var uint8

// Monitored variables. The first three are the paper's queue-length
// variables; the wire-telemetry variables (PR 8) let the controller see
// bandwidth pressure: VarWireBytes is the busiest link's EWMA payload
// bytes per checkpoint round, VarOutboxDepth the deepest windowed
// outbox high-water mark, and VarApplyLag the worst mirror's smoothed
// apply lag in microseconds (piggybacked like the queue lengths).
const (
	VarReady Var = iota
	VarBackup
	VarPending
	VarWireBytes
	VarOutboxDepth
	VarApplyLag
	numVars
)

// NumVars is the number of monitored variables.
const NumVars = int(numVars)

// String names the variable (the label value of
// adapt_engage_total{var=...} and the audit log's var field).
func (v Var) String() string {
	switch v {
	case VarReady:
		return "ready-queue"
	case VarBackup:
		return "backup-queue"
	case VarPending:
		return "pending-requests"
	case VarWireBytes:
		return "wire_bytes"
	case VarOutboxDepth:
		return "outbox_depth"
	case VarApplyLag:
		return "apply_lag"
	default:
		return fmt.Sprintf("var(%d)", uint8(v))
	}
}

// sampleVals indexes a Sample by monitored variable.
func sampleVals(s core.Sample) [numVars]int {
	return [numVars]int{s.Ready, s.Backup, s.Pending, s.WireBytes, s.Outbox, s.ApplyLag}
}

// Thresholds is a primary/secondary threshold pair. Primary triggers
// the modification; the modification remains until the value falls
// below Primary - Secondary (hysteresis).
type Thresholds struct {
	Primary   int
	Secondary int
}

// enabled reports whether the thresholds are active.
func (t Thresholds) enabled() bool { return t.Primary > 0 }

// calmFloor is the below-band boundary: a value is calm when it is
// strictly below Primary - Secondary. The floor is clamped to 1 so
// that a band configured with Secondary >= Primary still reverts once
// the variable drains to zero instead of never reverting.
func (t Thresholds) calmFloor() int {
	f := t.Primary - t.Secondary
	if f < 1 {
		f = 1
	}
	return f
}

// Regime is one complete mirroring configuration the controller can
// install: the paper's experiment alternates between a regime that
// coalesces up to 10 events with checkpointing every 50 and one that
// overwrites up to 20 position events with checkpointing every 100.
type Regime struct {
	// ID distinguishes regimes on the wire.
	ID uint8
	// Name is a human-readable label.
	Name string
	// Coalesce and MaxCoalesce configure sending-task coalescing.
	Coalesce    bool
	MaxCoalesce int
	// OverwriteLen is the run length for FAA position overwriting
	// (0 = no overwriting).
	OverwriteLen int
	// CheckpointFreq is the checkpoint frequency in mirrored events.
	CheckpointFreq int
	// FieldDeltas installs the field-delta mirroring regime: the
	// sending task ships per-flight field-level state deltas
	// (internal/statedelta) in place of raw data events. Composes with
	// Coalesce and OverwriteLen — deltas are built from the filtered,
	// coalesced stream.
	FieldDeltas bool
}

// SiteCentral keys the central site's own samples in the controller's
// per-site table. Mirror sites are keyed by their non-negative site
// index (the event Stream their checkpoint replies carry).
const SiteCentral = -1

// SiteLabel renders a site key the way metrics and audit entries name
// sites.
func SiteLabel(site int) string {
	if site == SiteCentral {
		return "central"
	}
	return fmt.Sprintf("mirror%d", site)
}

// Controller makes adaptation decisions at the central site. It is
// fed Samples — the central site's own and those piggybacked on
// mirror checkpoint replies — and switches between the baseline and
// degraded regimes with hysteresis.
type Controller struct {
	mu         sync.Mutex
	thresholds [numVars]Thresholds
	baseline   Regime
	degraded   Regime
	engaged    bool
	engages    uint64
	reverts    uint64

	// varRegime optionally overrides the degraded regime per monitored
	// variable (SetVarRegime): bandwidth pressure can select the
	// field-delta regime while queue pressure keeps selecting the
	// coalescing one. engagedRegime is the regime the current
	// engagement installed; engagesByVar counts engagements per
	// triggering variable (adapt_engage_total{var=...}).
	varRegime     [numVars]*Regime
	engagedRegime Regime
	engagesByVar  [numVars]uint64

	// last holds the most recent sample reported by each live site.
	// Engagement triggers on any one site crossing primary; reverting
	// requires every tracked site's latest sample below the band, so
	// N-1 idle mirrors cannot reinstall the baseline while one site is
	// still overloaded.
	last map[int]core.Sample

	// audit, when set, receives one entry per transition; engagedVar
	// remembers which variable triggered the current engagement so the
	// revert entry can name it.
	audit      *obs.AuditLog
	engagedVar Var

	// revertAfter debounces reverts: the controller reverts only after
	// this many consecutive observations during which every live
	// site's latest sample sits below the band.
	revertAfter int
	calmStreak  int

	// apply is invoked outside mu (a callback that re-enters
	// Engaged()/Current()/Observe() must not deadlock). applySeq
	// numbers transitions as they are decided under mu; appliedSeq,
	// under applyMu, ensures a stale transition never overwrites a
	// newer one when observers race to the callback.
	applyMu    sync.Mutex
	apply      func(Regime)
	applySeq   uint64
	appliedSeq uint64
}

// DefaultRevertAfter is the revert debounce in consecutive samples.
const DefaultRevertAfter = 8

// NewController returns a controller that switches between baseline
// and degraded regimes, calling apply on every transition (and once
// immediately to install the baseline).
func NewController(baseline, degraded Regime, apply func(Regime)) *Controller {
	c := &Controller{
		baseline:    baseline,
		degraded:    degraded,
		apply:       apply,
		revertAfter: DefaultRevertAfter,
		last:        make(map[int]core.Sample),
	}
	if apply != nil {
		apply(baseline)
	}
	return c
}

// SetApply installs (or replaces) the apply callback and immediately
// applies the current regime through it, so a controller constructed
// before its cluster exists (to avoid publishing the pointer to
// transport goroutines mid-construction) can be wired up afterwards.
func (c *Controller) SetApply(f func(Regime)) {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	c.apply = f
	if f == nil {
		return
	}
	c.mu.Lock()
	c.appliedSeq = c.applySeq
	reg := c.currentLocked()
	c.mu.Unlock()
	f(reg)
}

// runApply invokes the apply callback for the transition numbered seq,
// outside c.mu. Out-of-order arrivals (an observer that decided an
// older transition but reached the callback late) are dropped.
func (c *Controller) runApply(seq uint64, reg Regime) {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if seq <= c.appliedSeq {
		return
	}
	c.appliedSeq = seq
	if c.apply != nil {
		c.apply(reg)
	}
}

// SetAudit attaches an audit log: every engage and revert decision is
// recorded with the observed sample and the thresholds that drove it.
func (c *Controller) SetAudit(a *obs.AuditLog) {
	c.mu.Lock()
	c.audit = a
	c.mu.Unlock()
}

// The adaptation families. adapt_regime_id is labeled site="..." (the
// controller reports the central's, each applier its own site's);
// adapt_engage_total is labeled var="<monitored variable>".
var (
	famEngages     = obs.Declare("adapt_engages_total", obs.KindCounter, "Transitions into the degraded regime.")
	famReverts     = obs.Declare("adapt_reverts_total", obs.KindCounter, "Transitions back to the baseline regime.")
	famEngaged     = obs.Declare("adapt_engaged", obs.KindGauge, "1 while the degraded regime is installed.")
	famRegimeID    = obs.Declare("adapt_regime_id", obs.KindGauge, "ID of the mirroring regime installed at this site.")
	famEngageByVar = obs.Declare("adapt_engage_total", obs.KindCounter, "Transitions into a degraded regime, by triggering monitored variable.")

	famDirectiveStale     = obs.Declare("adapt_directive_stale_total", obs.KindCounter, "Regime directives discarded as duplicate or out-of-order.")
	famDirectiveInvalid   = obs.Declare("adapt_directive_invalid_total", obs.KindCounter, "Regime directives rejected as truncated or corrupted.")
	famDirectiveInstalled = obs.Declare("adapt_directives_installed_total", obs.KindCounter, "Regime directives newly installed at this site.")
)

// RegisterMetrics exposes the controller's transition counters,
// engagement state, and installed regime ID on r.
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	r.Func(famEngages, func() float64 {
		e, _ := c.Transitions()
		return float64(e)
	})
	r.Func(famReverts, func() float64 {
		_, rv := c.Transitions()
		return float64(rv)
	})
	r.Func(famEngaged, func() float64 {
		if c.Engaged() {
			return 1
		}
		return 0
	})
	r.Func(famRegimeID, func() float64 {
		return float64(c.Current().ID)
	}, obs.L("site", "central"))
	for v := Var(0); v < numVars; v++ {
		r.Func(famEngageByVar, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.engagesByVar[v])
		}, obs.L("var", v.String()))
	}
}

// auditLocked appends one transition entry. Caller holds c.mu.
func (c *Controller) auditLocked(action string, reg Regime, v Var, s core.Sample, site int) {
	if c.audit == nil {
		return
	}
	vals := sampleVals(s)
	th := c.thresholds[v]
	c.audit.Append(obs.AuditEntry{
		Action:    action,
		RegimeID:  reg.ID,
		Regime:    reg.Name,
		Var:       v.String(),
		Value:     vals[v],
		Site:      SiteLabel(site),
		Primary:   th.Primary,
		Secondary: th.Secondary,
		Ready:     s.Ready,
		Backup:    s.Backup,
		Pending:   s.Pending,
		WireBytes: s.WireBytes,
		Outbox:    s.Outbox,
		ApplyLag:  s.ApplyLag,
	})
}

// SetRevertAfter tunes the revert debounce (minimum 1).
func (c *Controller) SetRevertAfter(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	c.revertAfter = n
	c.mu.Unlock()
}

// SetVarRegime overrides the regime an engagement triggered by v
// installs (nil restores the shared degraded regime). The paper's
// mechanism installs one "modification" regardless of trigger; the
// per-variable override lets bandwidth pressure (VarWireBytes /
// VarOutboxDepth) select the field-delta regime while queue pressure
// keeps selecting the coalescing one. The override is consulted at
// engage time only — an engagement already in force keeps its regime
// until revert (first trigger wins).
func (c *Controller) SetVarRegime(v Var, r *Regime) {
	if v >= numVars {
		return
	}
	c.mu.Lock()
	if r == nil {
		c.varRegime[v] = nil
	} else {
		reg := *r
		c.varRegime[v] = &reg
	}
	c.mu.Unlock()
}

// SetMonitorValues is set_monitor_values(index, p, s): configure the
// primary and secondary thresholds for one monitored variable. The
// secondary (hysteresis) value is clamped into [0, primary]: a
// secondary at or above primary would drive the below-band test
// negative and make the degraded regime permanent.
func (c *Controller) SetMonitorValues(v Var, primary, secondary int) {
	if v >= numVars {
		return
	}
	if secondary < 0 {
		secondary = 0
	}
	if secondary > primary {
		secondary = primary
	}
	c.mu.Lock()
	c.thresholds[v] = Thresholds{Primary: primary, Secondary: secondary}
	c.mu.Unlock()
}

// Attach makes c the decision point of central's checkpoint rounds:
// every round's CHKPT first feeds the central's own sample to the
// controller, then carries whatever regime is current, stamped with
// the round. Mirror samples reach the controller separately, through
// the central's OnMirrorSample hook.
func (c *Controller) Attach(central *core.Central) {
	central.SetPiggyback(func() []byte {
		c.Observe(central.Sample())
		return EncodeRegime(c.Current())
	})
}

// Observe feeds one of the central site's own samples. It is
// ObserveSite(SiteCentral, s).
func (c *Controller) Observe(s core.Sample) bool {
	return c.ObserveSite(SiteCentral, s)
}

// ObserveSite feeds one sample reported by the given site (SiteCentral
// for the central site's own, a mirror index for piggybacked
// checkpoint-reply samples). It returns true when the observation
// caused a regime transition. Any single site crossing a primary
// threshold engages the degraded regime; the controller reverts only
// once every tracked live site's latest sample sits fully below the
// hysteresis band for revertAfter consecutive observations.
func (c *Controller) ObserveSite(site int, s core.Sample) bool {
	c.mu.Lock()
	vals := sampleVals(s)
	c.last[site] = s

	if !c.engaged {
		for v := Var(0); v < numVars; v++ {
			th := c.thresholds[v]
			if th.enabled() && vals[v] >= th.Primary {
				reg := c.degraded
				if r := c.varRegime[v]; r != nil {
					reg = *r
				}
				c.engaged = true
				c.engagedVar = v
				c.engagedRegime = reg
				c.engages++
				c.engagesByVar[v]++
				c.calmStreak = 0
				c.auditLocked("engage", reg, v, s, site)
				seq := c.nextSeqLocked()
				c.mu.Unlock()
				c.runApply(seq, reg)
				return true
			}
		}
		c.mu.Unlock()
		return false
	}

	if !c.calmLocked(s) || !c.allCalmLocked() {
		c.calmStreak = 0
		c.mu.Unlock()
		return false
	}
	c.calmStreak++
	if c.calmStreak < c.revertAfter {
		c.mu.Unlock()
		return false
	}
	c.engaged = false
	c.reverts++
	c.calmStreak = 0
	c.auditLocked("revert", c.baseline, c.engagedVar, s, site)
	seq := c.nextSeqLocked()
	reg := c.baseline
	c.mu.Unlock()
	c.runApply(seq, reg)
	return true
}

// EvictSite drops a site's row from the last-sample table, typically
// on membership departure: a failed site's stale overload report must
// not pin the degraded regime forever, and conversely its stale calm
// report must not count toward reverting.
func (c *Controller) EvictSite(site int) {
	c.mu.Lock()
	delete(c.last, site)
	c.mu.Unlock()
}

// Sites returns the number of sites with a tracked sample.
func (c *Controller) Sites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.last)
}

// calmLocked reports whether s sits strictly below the hysteresis band
// on every enabled variable. Caller holds c.mu.
func (c *Controller) calmLocked(s core.Sample) bool {
	vals := sampleVals(s)
	for v := Var(0); v < numVars; v++ {
		th := c.thresholds[v]
		if th.enabled() && vals[v] >= th.calmFloor() {
			return false
		}
	}
	return true
}

// allCalmLocked reports whether every tracked site's latest sample is
// calm. Caller holds c.mu.
func (c *Controller) allCalmLocked() bool {
	for _, s := range c.last {
		if !c.calmLocked(s) {
			return false
		}
	}
	return true
}

// nextSeqLocked numbers a decided transition. Caller holds c.mu.
func (c *Controller) nextSeqLocked() uint64 {
	c.applySeq++
	return c.applySeq
}

// currentLocked returns the installed regime. Caller holds c.mu.
func (c *Controller) currentLocked() Regime {
	if c.engaged {
		return c.engagedRegime
	}
	return c.baseline
}

// Engaged reports whether the degraded regime is installed.
func (c *Controller) Engaged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engaged
}

// Current returns the installed regime.
func (c *Controller) Current() Regime {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.currentLocked()
}

// Transitions returns the number of engage and revert transitions.
func (c *Controller) Transitions() (engages, reverts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engages, c.reverts
}

// EngagesByVar returns the engage count for one monitored variable.
func (c *Controller) EngagesByVar(v Var) uint64 {
	if v >= numVars {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engagesByVar[v]
}

// LastSamples copies the per-site last-sample table (the status plane's
// per-site rows). Keys are SiteCentral or mirror indices.
func (c *Controller) LastSamples() map[int]core.Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]core.Sample, len(c.last))
	for k, v := range c.last {
		out[k] = v
	}
	return out
}

// regimeWire is the encoded size of a Regime directive: the regime
// settings followed by a CRC32 so a corrupted directive is rejected
// rather than installed.
const regimeWire = 1 + 1 + 4 + 4 + 4 + 4

// EncodeRegime serializes the settings of r for piggybacking on CHKPT
// control events (the name is not transmitted).
func EncodeRegime(r Regime) []byte {
	b := make([]byte, regimeWire)
	b[0] = r.ID
	// b[1] is a flag byte: bit 0 coalescing, bit 1 field-delta
	// mirroring. (Pre-field-delta decoders read it as a boolean, so the
	// bit assignment keeps old directives decoding identically.)
	if r.Coalesce {
		b[1] |= 1
	}
	if r.FieldDeltas {
		b[1] |= 2
	}
	binary.LittleEndian.PutUint32(b[2:], uint32(r.MaxCoalesce))
	binary.LittleEndian.PutUint32(b[6:], uint32(r.OverwriteLen))
	binary.LittleEndian.PutUint32(b[10:], uint32(r.CheckpointFreq))
	binary.LittleEndian.PutUint32(b[14:], crc32.ChecksumIEEE(b[:14]))
	return b
}

// DecodeRegime parses a directive encoded by EncodeRegime, rejecting
// truncated or corrupted payloads.
func DecodeRegime(b []byte) (Regime, error) {
	if len(b) < regimeWire {
		return Regime{}, fmt.Errorf("adapt: regime directive too short: %d bytes", len(b))
	}
	if got, want := crc32.ChecksumIEEE(b[:14]), binary.LittleEndian.Uint32(b[14:]); got != want {
		return Regime{}, fmt.Errorf("adapt: regime directive checksum mismatch")
	}
	return Regime{
		ID:             b[0],
		Coalesce:       b[1]&1 != 0,
		FieldDeltas:    b[1]&2 != 0,
		MaxCoalesce:    int(binary.LittleEndian.Uint32(b[2:])),
		OverwriteLen:   int(binary.LittleEndian.Uint32(b[6:])),
		CheckpointFreq: int(binary.LittleEndian.Uint32(b[10:])),
	}, nil
}

// InstallRegime applies a regime to a central site: it configures
// coalescing, FAA-position overwriting, field-delta mirroring, and
// checkpoint frequency in one step. It is the standard apply callback
// for NewController.
func InstallRegime(c *core.Central) func(Regime) {
	return func(r Regime) {
		c.SetParams(r.Coalesce, r.MaxCoalesce, r.CheckpointFreq)
		c.InstallSelective(r.OverwriteLen)
		c.SetFieldDeltas(r.FieldDeltas)
	}
}
