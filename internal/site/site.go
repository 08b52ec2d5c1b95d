// Package site is the one place a site of the mirrored server is
// assembled. It has two layers.
//
// The transport-independent layer (this file) builds the pieces every
// assembly needs exactly once: NewMirror couples a core.MirrorSite with
// the applier that installs the central's regime directives on it,
// Mirror.Promote is the warm-standby adoption step that turns a live
// mirror into the next epoch's central, and RejoinCut is the rule a
// survivor of that promotion rejoins by. The in-process cluster
// (ledger time, direct calls), the chaos rig (the same, behind a fault
// plane) and the TCP runtime all call these.
//
// The TCP runtime (tcp.go, link.go, takeover.go) is the deployed site:
// an event-channel server, reconnecting links to its peers, an optional
// HTTP front and the wire-takeover protocol. cmd/mirrord starts one
// site per process; cluster.New(TransportTCP) starts a whole cluster of
// them on loopback, so tests and the wall-clock benchmark run the links
// and the control dispatch that ship.
package site

import (
	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/vclock"
)

// Mirror is one assembled mirror site.
type Mirror struct {
	Site *core.MirrorSite
	// Name labels the site in metrics, status documents and logs
	// ("mirror<SiteID>" unless the configuration names it).
	Name string
	// Applier consumes the regime directives the central piggybacks on
	// checkpoint traffic (and delivers inside recovery transfers) and
	// installs them on Site with round-watermark dedup.
	Applier *adapt.Applier
	// Takeover holds the site's wire-takeover counters, registered at
	// zero so every assembly exports the same series.
	Takeover *core.TakeoverStats
}

// NewMirror builds and starts a mirror site with its directive applier
// attached. cfg.OnPiggyback is owned by the assembly; everything else
// (cost model, CPU, registry, histograms, uplink) is the caller's.
func NewMirror(cfg core.MirrorSiteConfig) *Mirror {
	if cfg.Site == "" {
		cfg.Site = adapt.SiteLabel(int(cfg.SiteID))
	}
	ap := adapt.NewApplier(nil)
	ap.RegisterMetrics(cfg.Obs, cfg.Site)
	cfg.OnPiggyback = func(round uint64, b []byte) { ap.Apply(round, b) }
	m := &Mirror{
		Site:     core.NewMirrorSite(cfg),
		Name:     cfg.Site,
		Applier:  ap,
		Takeover: core.RegisterTakeoverMetrics(cfg.Obs, cfg.Site),
	}
	ap.SetInstall(adapt.InstallMirrorRegime(m.Site))
	return m
}

// Promoted is a mirror site turned central.
type Promoted struct {
	// Central starts with every mirror slot excluded; survivors are
	// re-admitted one by one through Central.Membership().RejoinSince.
	Central *core.Central
	// Anchor is the adopted main unit's processed watermark, the state
	// RejoinCut measures survivors against.
	Anchor vclock.VC
	// RoundFloor is the highest round the site had observed from the
	// failed central; the new epoch's rounds are stamped above it.
	RoundFloor uint64
}

// Promote adopts the mirror's state into a central for the given epoch.
// The site must already be cut off from its failed central. cfg
// supplies what the caller owns (cost model, CPU, links, registry,
// sample hook); Promote fills in the stream count, the resume state
// with the applier's directive pair, and the parameters of the regime
// the site last ran under (cfg.Params.CheckpointFreq is the fallback
// when no directive ever named one).
func (m *Mirror) Promote(epoch uint64, cfg core.CentralConfig, detector core.MembershipConfig) *Promoted {
	state := m.Site.Promote()
	state.Epoch = epoch
	if reg, round, ok := m.Applier.Current(); ok {
		state.Directive = adapt.EncodeRegime(reg)
		state.DirectiveRound = round
	}
	_, params, overwrite := m.Site.Regime()
	if params.CheckpointFreq <= 0 {
		params.CheckpointFreq = cfg.Params.CheckpointFreq
	}
	cfg.Params = params
	cfg.Streams = len(state.Clock)
	cfg.Resume = &state
	central := core.NewCentral(cfg)
	if overwrite > 0 {
		central.InstallSelective(overwrite)
	}
	admitNone(central, len(cfg.Mirrors), detector)
	return &Promoted{
		Central:    central,
		Anchor:     central.Main().LastProcessed(),
		RoundFloor: state.RoundFloor,
	}
}

// admitNone installs detector on c with all of its n mirror slots
// excluded: every central a site builds admits a mirror only through
// the rejoin transfer that mirror asks for.
func admitNone(c *core.Central, n int, detector core.MembershipConfig) {
	member := core.NewMembership(c, detector)
	for i := 0; i < n; i++ {
		_ = member.Exclude(i) // fails only for an index outside c's mirrors
	}
}

// RejoinCut is the cut a survivor presents to a promoted central. Only
// a site whose arrival watermark is covered by the adopted state may
// rejoin incrementally from its committed cut; one that admitted events
// past it holds mutations the adopted journal never saw and gets nil,
// the full transfer.
func RejoinCut(m *core.MirrorSite, anchor vclock.VC) vclock.VC {
	if m.ArrivalHigh().LessEq(anchor) {
		return m.Backup().Committed()
	}
	return nil
}

// The batch-frame slab pool is global to the event package, so every
// site of one process reports the same values.
var (
	famSlabHit      = obs.Declare("slab_pool_hit_total", obs.KindCounter, "Batch-frame slabs served from the pool.")
	famSlabMiss     = obs.Declare("slab_pool_miss_total", obs.KindCounter, "Batch-frame slabs freshly allocated on pool miss.")
	famSlabRetained = obs.Declare("slab_pool_retained_total", obs.KindCounter, "Batch-frame slabs returned to the pool for reuse.")
)

// RegisterSlabMetrics exports the process-wide slab-pool counters on r.
func RegisterSlabMetrics(r *obs.Registry) {
	r.Func(famSlabHit, func() float64 { h, _, _ := event.SlabPoolStats(); return float64(h) })
	r.Func(famSlabMiss, func() float64 { _, m, _ := event.SlabPoolStats(); return float64(m) })
	r.Func(famSlabRetained, func() float64 { _, _, r := event.SlabPoolStats(); return float64(r) })
}
