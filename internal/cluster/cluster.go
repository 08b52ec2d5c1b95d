// Package cluster assembles a mirrored OIS server — one central site
// plus N mirror sites — over a choice of transports, and exposes the
// handles experiments need: feeding events, draining the pipeline,
// request targets, and the per-node virtual CPUs. It is the
// reproduction's stand-in for the paper's 8-node Pentium III cluster.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/simnet"
	"adaptmirror/internal/site"
	"adaptmirror/internal/status"
)

// Transport selects how sites are wired together.
type Transport int

// Available transports.
const (
	// TransportDirect wires sites with synchronous function calls —
	// the fastest harness, used by most experiments (network cost is
	// modeled by the cost model, matching the paper's observation
	// that intra-cluster bandwidth is not the bottleneck).
	TransportDirect Transport = iota
	// TransportTCP starts the deployed site runtime (internal/site, what
	// cmd/mirrord runs) once per site on loopback TCP, optionally
	// shaped by a simnet profile.
	TransportTCP
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case TransportDirect:
		return "direct"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Mirrors is the number of mirror sites.
	Mirrors int
	// Transport wires the sites (default TransportDirect).
	Transport Transport
	// Shaping applies to TCP links (TransportTCP only).
	Shaping simnet.Profile
	// Params are the initial mirroring parameters.
	Params core.Params
	// Model is the CPU cost model for every site.
	Model costmodel.Model
	// StatePadding inflates per-flight init-state size.
	StatePadding int
	// StateShards is each site's EDE flight-table stripe count
	// (0 = ede.DefaultShards).
	StateShards int
	// RequestWorkers bounds each site's init-state serving pool
	// (0 = core.DefaultRequestWorkers).
	RequestWorkers int
	// Streams is the input stream count (default 2: FAA + Delta).
	Streams int
	// NoMirror disables the mirroring path (baseline).
	NoMirror bool
	// NICOffload gives the central site a second processor hosting
	// its auxiliary-unit work (the paper's planned IXP1200
	// network-co-processor split).
	NICOffload bool
	// SeriesBin, when non-zero, records a delay time series with this
	// bin width (Figure 9).
	SeriesBin time.Duration
	// OnMirrorSample forwards piggybacked mirror monitor samples
	// (adaptation input) together with the reporting mirror's index.
	OnMirrorSample func(site int, s core.Sample)
	// ClientOut, when non-nil, additionally receives the central
	// site's client update stream (thin clients, operations logs).
	ClientOut core.Sender
	// DeltaHorizon is the central mutation journal's retention, in
	// committed checkpoint cuts, for incremental mirror rejoin
	// (0 = ede.DefaultJournalHorizon; negative disables journaling so
	// every rejoin ships the full snapshot).
	DeltaHorizon int
}

// Cluster is a running mirrored server.
type Cluster struct {
	Central *core.Central
	Mirrors []*core.MirrorSite

	// CPUs[0] is the central node; CPUs[1..] the mirrors.
	CPUs []*costmodel.CPU

	// DelayHist records central update delays (Figures 7-9 metrics).
	DelayHist *metrics.Histogram
	// RequestHist records init-state request latencies (enqueue →
	// response ready) across every site's serving pool.
	RequestHist *metrics.Histogram
	// DelaySeries is non-nil when Config.SeriesBin was set.
	DelaySeries *metrics.Series

	// Updates counts state updates emitted to regular clients.
	Updates *metrics.Counter

	// Obs is the cluster-wide metrics registry: every site registers
	// its instruments here under a site label, so one scrape (or one
	// WritePrometheus dump) covers the whole cluster.
	Obs *obs.Registry
	// Tracer decomposes the end-to-end update delay into lifecycle
	// stages (ready-wait, forward, apply, fan-out enqueue, link send,
	// mirror apply, checkpoint commit) shared by every site.
	Tracer *obs.Tracer

	// Appliers[i] is mirror i's adaptation applier: it consumes the
	// regime directives the central piggybacks on CHKPT traffic,
	// discards stale/duplicate deliveries by checkpoint round, and
	// installs the mirror-relevant parameters on Mirrors[i]. Always
	// wired (a non-adaptive cluster simply never sees a directive) so
	// every deployment exports the per-site adapt_regime_id gauge.
	Appliers []*adapt.Applier

	// Controller and Audit are set when an adaptation controller runs
	// against this cluster (RunExperiment wires them; manual assemblies
	// may too). Both may be nil; the status plane degrades gracefully.
	Controller *adapt.Controller
	Audit      *obs.AuditLog

	start     time.Time
	closers   []func()
	closeOnce sync.Once

	sampleMu sync.Mutex
	onSample func(site int, s core.Sample)
}

// SetOnMirrorSample installs (or replaces) the callback receiving the
// monitor samples mirror sites piggyback on checkpoint replies. It
// composes with Config.OnMirrorSample: both are invoked.
func (cl *Cluster) SetOnMirrorSample(f func(site int, s core.Sample)) {
	cl.sampleMu.Lock()
	cl.onSample = f
	cl.sampleMu.Unlock()
}

// AttachController makes c the cluster's adaptation decision-maker:
// every site's samples reach it, its regime is installed on the central
// site and rides each checkpoint round, and the registry and the status
// plane report it.
func (cl *Cluster) AttachController(c *adapt.Controller) {
	cl.SetOnMirrorSample(func(site int, s core.Sample) { c.ObserveSite(site, s) })
	c.SetApply(adapt.InstallRegime(cl.Central))
	c.RegisterMetrics(cl.Obs)
	cl.Controller = c
	c.Attach(cl.Central)
}

func (cl *Cluster) dispatchSample(site int, s core.Sample, configured func(int, core.Sample)) {
	if configured != nil {
		configured(site, s)
	}
	cl.sampleMu.Lock()
	f := cl.onSample
	cl.sampleMu.Unlock()
	if f != nil {
		f(site, s)
	}
}

// counterSink counts submissions (the regular-clients channel) and
// forwards them to an optional downstream consumer.
type counterSink struct {
	c    *metrics.Counter
	next core.Sender
}

func (s counterSink) Submit(e *event.Event) error {
	s.c.Inc()
	if s.next != nil {
		return s.next.Submit(e)
	}
	return nil
}

// famClientUpdates is a cluster-level family: one unlabeled series, fed
// by the central site.
var famClientUpdates = obs.Declare("client_updates_total", obs.KindCounter, "State updates emitted to regular clients.")

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Streams <= 0 {
		cfg.Streams = 2
	}
	reg := obs.NewRegistry()
	cl := &Cluster{
		DelayHist:   reg.Histogram(site.FamUpdateDelay),
		RequestHist: reg.Histogram(core.FamRequestLatency),
		Updates:     reg.Counter(famClientUpdates),
		Obs:         reg,
		Tracer:      obs.NewTracer(reg),
		start:       time.Now(),
	}
	site.RegisterSlabMetrics(reg)
	if cfg.SeriesBin > 0 {
		cl.DelaySeries = metrics.NewSeries(cl.start, cfg.SeriesBin)
	}
	for i := 0; i <= cfg.Mirrors; i++ {
		cl.CPUs = append(cl.CPUs, &costmodel.CPU{})
	}

	mainCfg := cl.siteMainCfg(cfg)
	mainCfg.Out = counterSink{c: cl.Updates, next: cfg.ClientOut}
	mainCfg.DelayHist = cl.DelayHist
	mainCfg.DelaySeries = cl.DelaySeries

	var auxCPU *costmodel.CPU
	if cfg.NICOffload {
		auxCPU = &costmodel.CPU{}
		cl.CPUs = append(cl.CPUs, auxCPU)
	}
	configured := cfg.OnMirrorSample
	central := core.CentralConfig{
		Streams:      cfg.Streams,
		Params:       cfg.Params,
		Model:        cfg.Model,
		CPU:          cl.CPUs[0],
		AuxCPU:       auxCPU,
		Main:         mainCfg,
		NoMirror:     cfg.NoMirror,
		DeltaHorizon: cfg.DeltaHorizon,
		Obs:          cl.Obs,
		Tracer:       cl.Tracer,
		OnMirrorSample: func(site int, s core.Sample) {
			cl.dispatchSample(site, s, configured)
		},
	}
	switch cfg.Transport {
	case TransportDirect:
		cl.wireDirect(cfg, central)
	case TransportTCP:
		if err := cl.startTCP(cfg, central); err != nil {
			cl.Close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: unknown transport %d", cfg.Transport)
	}
	return cl, nil
}

// siteMainCfg is the main-unit configuration shared by every site:
// the EDE, the bounded request-serving pool, and the cluster-wide
// request-latency histogram.
func (cl *Cluster) siteMainCfg(cfg Config) core.MainConfig {
	return core.MainConfig{
		EDE:            ede.Config{Model: cfg.Model, StatePadding: cfg.StatePadding, Shards: cfg.StateShards},
		RequestWorkers: cfg.RequestWorkers,
		RequestHist:    cl.RequestHist,
	}
}

// Start returns the cluster construction instant (experiment t=0).
func (cl *Cluster) Start() time.Time { return cl.start }

// Targets returns the main units that serve client requests: the
// mirror sites, or the central site when no mirrors exist.
func (cl *Cluster) Targets() []*core.MainUnit {
	if len(cl.Mirrors) == 0 {
		return []*core.MainUnit{cl.Central.Main()}
	}
	out := make([]*core.MainUnit, len(cl.Mirrors))
	for i, m := range cl.Mirrors {
		out[i] = m.Main()
	}
	return out
}

// AllTargets returns every site's main unit — the central site acts
// as the primary mirror in the paper's architecture, so experiment
// request load is "evenly distributed across mirror sites" including
// it (Figures 6-9).
func (cl *Cluster) AllTargets() []*core.MainUnit {
	out := []*core.MainUnit{cl.Central.Main()}
	for _, m := range cl.Mirrors {
		out = append(out, m.Main())
	}
	return out
}

// Feed ingests events in order, as fast as the central site admits
// them.
func (cl *Cluster) Feed(events []*event.Event) error {
	for i, e := range events {
		if err := cl.Central.Ingest(e); err != nil {
			return fmt.Errorf("cluster: feeding event %d/%d: %w", i, len(events), err)
		}
	}
	return nil
}

// FeedPaced ingests events at the given rate in events/second (0
// behaves like Feed). Figure 9's time-series experiment paces its
// stream so adaptation has a timeline to react on.
func (cl *Cluster) FeedPaced(events []*event.Event, rate float64, stop <-chan struct{}) error {
	if rate <= 0 {
		return cl.Feed(events)
	}
	// Accumulate due events as the integral of the rate, dispatching
	// batches per wake-up: accurate pacing at rates far above the
	// host's sleep granularity.
	start := time.Now()
	sent := 0
	for sent < len(events) {
		select {
		case <-stopCh(stop):
			return nil
		default:
		}
		due := int(time.Since(start).Seconds() * rate)
		if due > len(events) {
			due = len(events)
		}
		for ; sent < due; sent++ {
			if err := cl.Central.Ingest(events[sent]); err != nil {
				return fmt.Errorf("cluster: feeding event %d/%d: %w", sent, len(events), err)
			}
		}
		if sent < len(events) {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func stopCh(stop <-chan struct{}) <-chan struct{} {
	if stop == nil {
		return make(chan struct{}) // never ready
	}
	return stop
}

// DrainAll stops ingestion, waits until every site has received and
// processed every event, runs a final checkpoint, and waits for all
// booked CPU work to complete. It returns the wall-clock instant the
// last site finished.
func (cl *Cluster) DrainAll() time.Time {
	cl.Central.Drain()
	// Drain() returning implies the per-link senders have flushed, so
	// LinkStats carries each link's final Sent count. Waiting per link
	// (rather than on the global Mirrored counter) stays correct when a
	// link filtered or shed events: a mirror only ever receives what
	// its own link actually sent.
	stats := cl.Central.LinkStats()
	for i, m := range cl.Mirrors {
		for m.Received() < stats[i].Sent {
			time.Sleep(200 * time.Microsecond)
		}
		m.Drain()
	}
	cl.Central.Checkpoint()
	return costmodel.WaitIdle(cl.CPUs...)
}

// Close tears the cluster down, the central site first.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		for i := len(cl.closers) - 1; i >= 0; i-- {
			cl.closers[i]()
		}
	})
}

// --- wiring -----------------------------------------------------------

type senderFunc func(*event.Event) error

func (f senderFunc) Submit(e *event.Event) error { return f(e) }

// dataFunc is the direct-call data link: the central's fan-out calls
// straight into the receiving site's ingest.
type dataFunc func([]*event.Event, event.Ref) error

func (f dataFunc) SubmitOwned(es []*event.Event, ref event.Ref) error { return f(es, ref) }

// mirrorConfig is mirror site i's configuration; the transport adds
// the control uplink.
func (cl *Cluster) mirrorConfig(cfg Config, i int) core.MirrorSiteConfig {
	return core.MirrorSiteConfig{
		Main:   cl.siteMainCfg(cfg),
		Model:  cfg.Model,
		CPU:    cl.CPUs[i+1],
		SiteID: uint8(i),
		Obs:    cl.Obs,
		Tracer: cl.Tracer,
	}
}

// addMirror records an assembled mirror site and how to stop it.
func (cl *Cluster) addMirror(m *site.Mirror, stop func()) {
	cl.Mirrors = append(cl.Mirrors, m.Site)
	cl.Appliers = append(cl.Appliers, m.Applier)
	cl.closers = append(cl.closers, stop)
}

// wireDirect connects sites with synchronous calls — the one in-process
// transport, on ledger time. Mirrors are created first; their uplinks
// reach the central through cl once it exists.
func (cl *Cluster) wireDirect(cfg Config, central core.CentralConfig) {
	for i := 0; i < cfg.Mirrors; i++ {
		mc := cl.mirrorConfig(cfg, i)
		mc.CtrlUp = senderFunc(func(e *event.Event) error {
			cl.Central.HandleControl(e)
			return nil
		})
		m := site.NewMirror(mc)
		cl.addMirror(m, m.Site.Close)
		central.Mirrors = append(central.Mirrors, core.MirrorLink{
			Data: dataFunc(m.Site.HandleOwnedBatch),
			Ctrl: senderFunc(func(e *event.Event) error { m.Site.HandleControl(e); return nil }),
		})
	}
	cl.Central = core.NewCentral(central)
	cl.closers = append(cl.closers, cl.Central.Close)
}

// startTCP starts the deployed site runtime on loopback: the mirrors
// first, since the central names their bound addresses, then the
// central, at which each mirror is pointed to ask for admission. It
// returns once the central has admitted every mirror.
func (cl *Cluster) startTCP(cfg Config, central core.CentralConfig) error {
	var mirrors []*site.MirrorSite
	var addrs []string
	for i := 0; i < cfg.Mirrors; i++ {
		m, err := site.StartMirror(site.MirrorOptions{
			Config:  cl.mirrorConfig(cfg, i),
			Listen:  "127.0.0.1:0",
			Shaping: cfg.Shaping,
		})
		if err != nil {
			return fmt.Errorf("cluster: mirror %d: %w", i, err)
		}
		cl.addMirror(m.Mirror, func() { m.Close() })
		mirrors = append(mirrors, m)
		addrs = append(addrs, m.Addr)
	}
	c, err := site.StartCentral(site.CentralOptions{
		Config:  central,
		Listen:  "127.0.0.1:0",
		Mirrors: addrs,
		Shaping: cfg.Shaping,
	})
	if err != nil {
		return fmt.Errorf("cluster: central: %w", err)
	}
	cl.Central = c.Central
	cl.closers = append(cl.closers, func() { c.Close() })
	for _, m := range mirrors {
		m.Follow(c.Addr)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Central.Membership().Live() < len(mirrors); {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: central admitted %d of %d mirrors", c.Central.Membership().Live(), len(mirrors))
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// --- status plane -----------------------------------------------------

// CentralStatus builds the aggregated /cluster/status document: the
// central site's regime, monitored variables, per-link wire telemetry,
// per-site rows (each mirror applier's installed regime + its latest
// piggybacked sample), rejoin accounting, checkpoint progress, and the
// adaptation audit tail.
func (cl *Cluster) CentralStatus() status.Document {
	siteRegimes := make(map[int]status.SiteRegime, len(cl.Appliers))
	for i, ap := range cl.Appliers {
		if reg, round, ok := ap.Current(); ok {
			siteRegimes[i] = status.SiteRegime{RegimeID: reg.ID, DirectiveRound: round}
		}
	}
	return status.Central(status.CentralSources{
		Site:        "central",
		Central:     cl.Central,
		Controller:  cl.Controller,
		Audit:       cl.Audit,
		SiteRegimes: siteRegimes,
	})
}

// MirrorStatus builds mirror i's local status document.
func (cl *Cluster) MirrorStatus(i int) status.Document {
	if i < 0 || i >= len(cl.Mirrors) {
		return status.Document{Role: "mirror"}
	}
	var ap *adapt.Applier
	if i < len(cl.Appliers) {
		ap = cl.Appliers[i]
	}
	return status.Mirror(fmt.Sprintf("mirror%d", i), cl.Mirrors[i], ap)
}
