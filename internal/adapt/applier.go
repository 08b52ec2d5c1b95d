// Mirror-side directive application. The central controller decides
// regime transitions; each mirror runs an Applier that consumes the
// directives piggybacked on CHKPT control events (and re-delivered
// standalone or inside recovery snapshots), keeps a round watermark so
// duplicated or reordered control traffic cannot install a stale
// regime, and installs the mirror-relevant parameters locally.
package adapt

import (
	"sync"

	"adaptmirror/internal/core"
	"adaptmirror/internal/obs"
)

// Applier applies versioned regime directives at a mirror site.
type Applier struct {
	mu        sync.Mutex
	round     uint64 // watermark: highest round whose directive was accepted
	cur       Regime
	have      bool
	installed uint64
	stale     uint64
	invalid   uint64

	// install runs outside mu so a callback that re-enters Current()
	// or Stats() cannot deadlock; appliedRound keeps racing deliveries
	// in round order at the callback boundary.
	installMu    sync.Mutex
	install      func(round uint64, r Regime)
	appliedRound uint64
}

// NewApplier returns an applier invoking install (may be nil) for each
// newly accepted directive.
func NewApplier(install func(round uint64, r Regime)) *Applier {
	return &Applier{install: install}
}

// SetInstall installs (or replaces) the install callback and, when a
// directive has already been accepted, immediately replays the current
// one through it. This lets the applier be wired into a mirror site's
// config before the site object it installs into exists.
func (a *Applier) SetInstall(f func(round uint64, r Regime)) {
	a.installMu.Lock()
	defer a.installMu.Unlock()
	a.install = f
	if f == nil {
		return
	}
	a.mu.Lock()
	round, reg, have := a.round, a.cur, a.have
	a.mu.Unlock()
	if have {
		if round > a.appliedRound {
			a.appliedRound = round
		}
		f(round, reg)
	}
}

// Apply decodes and applies one directive stamped with its checkpoint
// round. It returns true when the directive was newly installed, false
// when it was rejected as malformed (counted in invalid) or as a
// duplicate / out-of-order stale delivery (counted in stale). Round 0
// is never valid: coordinator rounds start at 1.
func (a *Applier) Apply(round uint64, payload []byte) bool {
	reg, err := DecodeRegime(payload)
	if err != nil {
		a.mu.Lock()
		a.invalid++
		a.mu.Unlock()
		return false
	}
	a.mu.Lock()
	if round <= a.round {
		a.stale++
		a.mu.Unlock()
		return false
	}
	a.round = round
	a.cur = reg
	a.have = true
	a.installed++
	a.mu.Unlock()

	a.installMu.Lock()
	if round > a.appliedRound {
		a.appliedRound = round
		if a.install != nil {
			a.install(round, reg)
		}
	}
	a.installMu.Unlock()
	return true
}

// Current returns the installed regime, the round that carried it, and
// whether any directive has been accepted yet.
func (a *Applier) Current() (Regime, uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur, a.round, a.have
}

// Stats returns the applier's acceptance counters.
func (a *Applier) Stats() (installed, stale, invalid uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.installed, a.stale, a.invalid
}

// RegisterMetrics exposes the applier's regime gauge and discard
// counters on r under the given site label.
func (a *Applier) RegisterMetrics(r *obs.Registry, site string) {
	l := obs.L("site", site)
	r.Func(famRegimeID, func() float64 {
		reg, _, ok := a.Current()
		if !ok {
			return 0
		}
		return float64(reg.ID)
	}, l)
	r.Func(famDirectiveStale, func() float64 {
		_, stale, _ := a.Stats()
		return float64(stale)
	}, l)
	r.Func(famDirectiveInvalid, func() float64 {
		_, _, invalid := a.Stats()
		return float64(invalid)
	}, l)
	r.Func(famDirectiveInstalled, func() float64 {
		installed, _, _ := a.Stats()
		return float64(installed)
	}, l)
}

// InstallMirrorRegime returns the standard install callback for a
// mirror site: it records the regime ID and the mirror-relevant
// parameters (the configuration a promoted replacement central would
// start from) on the site.
func InstallMirrorRegime(m *core.MirrorSite) func(uint64, Regime) {
	return func(_ uint64, r Regime) {
		m.SetRegime(r.ID, core.Params{
			Coalesce:       r.Coalesce,
			MaxCoalesce:    r.MaxCoalesce,
			CheckpointFreq: r.CheckpointFreq,
		}, r.OverwriteLen)
	}
}
