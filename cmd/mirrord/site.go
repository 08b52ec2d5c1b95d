package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/adapt"

	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/oislog"
	"adaptmirror/internal/status"
)

// Channel names of the deployed wire protocol. Sources send to the
// central site's "ingress"; the central dials each mirror's "data" and
// "ctrl.down"; mirrors dial the central's "ctrl.up".
const (
	chanIngress  = "ingress"
	chanData     = "data"
	chanCtrlDown = "ctrl.down"
	chanCtrlUp   = "ctrl.up"
	// chanUpdates carries the central EDE's output stream; thin
	// clients (cmd/oisclient) subscribe to it with recv links.
	chanUpdates = "updates"
)

type centralOptions struct {
	Listen    string
	HTTP      string
	Mirrors   []string
	Selective int
	Coalesce  int
	ChkptFreq int
	StatePad  int
	// Shards/ReqWorkers tune the init-state serving path (0 = the
	// ede/core defaults).
	Shards     int
	ReqWorkers int
	// LogDir, when non-empty, durably records every client state
	// update in a segmented operations log (the paper's logging
	// database consumer).
	LogDir string
	// Adapt enables runtime adaptation between the paper's two
	// mirroring functions, engaging when any site's pending-request
	// buffer reaches AdaptPrimary and reverting below
	// AdaptPrimary-AdaptSecondary.
	Adapt          bool
	AdaptPrimary   int
	AdaptSecondary int
	// AuditPath, when non-empty (and Adapt is on), durably records
	// every adaptation transition as JSONL at this path.
	AuditPath string
}

// centralSite bundles everything a running central site owns.
type centralSite struct {
	Central *core.Central
	Front   *httpfront.Front
	// Obs is the site-wide metrics registry, served at /metrics and
	// dumped by -metricsdump; Tracer feeds its lifecycle histograms.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	// Controller is non-nil when runtime adaptation is enabled; Audit
	// is its transition log (durable when -auditlog was configured).
	Controller *adapt.Controller
	Audit      *obs.AuditLog
	// Log is non-nil when -log was configured.
	Log *oislog.Log
	// Addr and HTTPAddr are the bound listen addresses.
	Addr     string
	HTTPAddr string
	srv      *echo.Server
	bus      *echo.Bus
	links    []interface{ Close() error }
}

// startCentral assembles a central site: an event-channel server for
// ingress and control-up traffic, send links to every mirror, and an
// HTTP front for client requests.
// registerSlabMetrics exports the process-wide batch-frame slab-pool
// counters on a site registry (they are global to the event package,
// so every site of one process reports the same values).
func registerSlabMetrics(r *obs.Registry) {
	r.Describe("slab_pool_hit_total", "Batch-frame slabs served from the pool.")
	r.Describe("slab_pool_miss_total", "Batch-frame slabs freshly allocated on pool miss.")
	r.Describe("slab_pool_retained_total", "Batch-frame slabs returned to the pool for reuse.")
	r.CounterFunc("slab_pool_hit_total", func() float64 { h, _, _ := event.SlabPoolStats(); return float64(h) })
	r.CounterFunc("slab_pool_miss_total", func() float64 { _, m, _ := event.SlabPoolStats(); return float64(m) })
	r.CounterFunc("slab_pool_retained_total", func() float64 { _, _, r := event.SlabPoolStats(); return float64(r) })
}

func startCentral(opts centralOptions) (*centralSite, error) {
	s := &centralSite{bus: echo.NewBus(), Obs: obs.NewRegistry()}
	s.Tracer = obs.NewTracer(s.Obs)
	registerSlabMetrics(s.Obs)

	// Dial every mirror before constructing the central so its
	// sending task has live links from the first event (and a bad
	// mirror address fails site startup immediately). The links redial
	// on the next submit after a failure, so a mirror that crashes and
	// restarts on the same address can be recovered over the same
	// MirrorLink by Membership.Rejoin.
	var mirrorLinks []core.MirrorLink
	for _, addr := range opts.Mirrors {
		data, err := dialReconnecting(addr, chanData)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dialing mirror %s data channel: %w", addr, err)
		}
		s.links = append(s.links, data)
		ctrl, err := dialReconnecting(addr, chanCtrlDown)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dialing mirror %s control channel: %w", addr, err)
		}
		s.links = append(s.links, ctrl)
		mirrorLinks = append(mirrorLinks, core.MirrorLink{Data: data, Ctrl: ctrl})
	}

	// The central EDE's output stream is exported on the updates
	// channel for remote thin clients, and optionally tee'd into the
	// durable operations log.
	updatesCh, err := s.bus.Open(chanUpdates)
	if err != nil {
		s.Close()
		return nil, err
	}
	mainCfg := core.MainConfig{
		EDE:            ede.Config{Model: costmodel.Default, StatePadding: opts.StatePad, Shards: opts.Shards},
		RequestWorkers: opts.ReqWorkers,
		Out:            updatesCh,
	}
	if opts.LogDir != "" {
		logOut, err := oislog.Open(opts.LogDir, oislog.Options{})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Log = logOut
		updatesCh.Subscribe(func(e *event.Event) { _ = logOut.Append(e) })
	}
	s.Central = core.NewCentral(core.CentralConfig{
		Streams: 2,
		Params: core.Params{
			Coalesce:       opts.Coalesce > 0,
			MaxCoalesce:    opts.Coalesce,
			CheckpointFreq: opts.ChkptFreq,
		},
		Model:    costmodel.Default,
		CPU:      &costmodel.CPU{},
		Main:     mainCfg,
		Mirrors:  mirrorLinks,
		NoMirror: len(mirrorLinks) == 0,
		Obs:      s.Obs,
		Tracer:   s.Tracer,
		OnMirrorSample: func(site int, sample core.Sample) {
			s.observeSample(site, sample)
		},
	})
	if opts.Selective > 0 {
		s.Central.InstallSelective(opts.Selective)
	}
	if opts.Adapt {
		fn1 := adapt.Regime{ID: 1, Name: "coalesce-10/chkpt-50", Coalesce: true, MaxCoalesce: 10, OverwriteLen: opts.Selective, CheckpointFreq: 50}
		fn2 := adapt.Regime{ID: 2, Name: "overwrite-20/chkpt-100", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
		s.Controller = adapt.NewController(fn1, fn2, adapt.InstallRegime(s.Central))
		primary, secondary := opts.AdaptPrimary, opts.AdaptSecondary
		if primary <= 0 {
			primary = 100
		}
		if secondary <= 0 {
			secondary = primary / 2
		}
		s.Controller.SetMonitorValues(adapt.VarPending, primary, secondary)
		s.Controller.RegisterMetrics(s.Obs)
		s.Audit = obs.NewAuditLog(0)
		if opts.AuditPath != "" {
			if err := s.Audit.OpenDurable(opts.AuditPath); err != nil {
				s.Close()
				return nil, fmt.Errorf("opening audit log: %w", err)
			}
		}
		s.Controller.SetAudit(s.Audit)
		s.Central.SetPiggyback(func() []byte {
			s.Controller.Observe(s.Central.Sample())
			return adapt.EncodeRegime(s.Controller.Current())
		})
	}

	// Export ingress and control-up channels.
	ingress, err := s.bus.Open(chanIngress)
	if err != nil {
		s.Close()
		return nil, err
	}
	ingress.Subscribe(func(e *event.Event) { _ = s.Central.Ingest(e) })
	ctrlUp, err := s.bus.Open(chanCtrlUp)
	if err != nil {
		s.Close()
		return nil, err
	}
	ctrlUp.Subscribe(s.Central.HandleControl)

	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listening on %s: %w", opts.Listen, err)
	}
	s.Addr = ln.Addr().String()
	s.srv = echo.NewServer(s.bus)
	go s.srv.Serve(ln)

	s.Front = httpfront.NewWithRegistry(s.Central.Main(), s.Obs)
	// Gate agents and similar clients may generate state updates;
	// they enter through the central site's receiving task.
	s.Front.EnableUpdates(s.Central.Ingest)
	s.Front.SetStatus(s.Status)
	httpAddr, err := s.Front.Listen(opts.HTTP)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.HTTPAddr = httpAddr
	return s, nil
}

// Status builds the aggregated cluster-status document served at
// /cluster/status: the central regime and monitored variables, per-link
// wire telemetry, per-site rows from the controller's last piggybacked
// samples, rejoin accounting, and the adaptation audit tail.
func (s *centralSite) Status() status.Document {
	return status.Central(status.CentralSources{
		Site:       "central",
		Central:    s.Central,
		Controller: s.Controller,
		Audit:      s.Audit,
	})
}

// observeSample forwards piggybacked mirror monitor samples to the
// adaptation controller, when one is installed, keyed by the
// reporting site.
func (s *centralSite) observeSample(site int, sample core.Sample) {
	if s.Controller != nil {
		s.Controller.ObserveSite(site, sample)
	}
}

// Close tears the site down.
func (s *centralSite) Close() error {
	if s.Front != nil {
		s.Front.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.Central != nil {
		s.Central.Close()
	}
	if s.Log != nil {
		s.Log.Close()
	}
	if s.Audit != nil {
		s.Audit.Close()
	}
	for _, l := range s.links {
		l.Close()
	}
	if s.bus != nil {
		s.bus.Close()
	}
	return nil
}

type mirrorOptions struct {
	Listen  string
	HTTP    string
	Central string
	// SiteID is this mirror's index in the central site's -mirrors
	// list. It is stamped on checkpoint replies so the coordinator's
	// per-site reply accounting and the failure detector can tell the
	// mirrors apart.
	SiteID   int
	StatePad int
	// Shards/ReqWorkers tune the init-state serving path (0 = the
	// ede/core defaults).
	Shards     int
	ReqWorkers int
	// Standby arms this site as the warm-standby central: its EDE
	// journals mutations per committed cut so a promoted replacement
	// central can keep serving incremental (delta) rejoins to the
	// surviving mirrors, and the takeover runtime (when armed via
	// Peers/TakeoverBudget) promotes it directly on central failure
	// instead of holding an election.
	Standby bool
	// StandbyHorizon bounds the standby journal in committed cuts
	// (0 = the core default).
	StandbyHorizon int
	// Peers is the shared cluster manifest: every mirror site's
	// event-channel address, indexed by site ID (entry SiteID is this
	// site's own). Together with TakeoverBudget > 0 it arms the
	// wire-takeover runtime; see takeover.go.
	Peers []string
	// TakeoverBudget is how many consecutive detection intervals
	// without a new checkpoint round the site tolerates before
	// declaring the central dead (0 disarms wire takeover).
	TakeoverBudget int
	// TakeoverInterval is the detection ticker period (0 = the
	// takeover.go default). Align it with the expected checkpoint
	// round cadence.
	TakeoverInterval time.Duration
	// Advertise overrides the address announced to survivors after a
	// promotion (default Peers[SiteID]).
	Advertise string
}

// Uplink dial/write bounds: one unreachable or wedged peer must fail a
// submission in bounded time instead of holding the uplink mutex (and
// every submitter behind it) forever.
const (
	defaultDialTimeout  = 3 * time.Second
	defaultWriteTimeout = 5 * time.Second
)

// lazyUplink is a self-healing send link to one channel of a peer
// site: it dials on first use and redials after failures. Mirrors use
// it for the control uplink so they can start before the central site
// exists (the documented startup order); the central uses it (via
// dialReconnecting, which dials eagerly) for its per-mirror data and
// control downlinks so a restarted mirror can be re-admitted over the
// same link. Every dial and write carries a deadline, and Repoint
// swings the link to a new peer address (wire takeover: survivors
// redial the promoted central).
type lazyUplink struct {
	name string

	mu   sync.Mutex
	addr string
	link *echo.SendLink
	// dialTimeout/writeTimeout bound the dial and each write (zero
	// values fall back to the package defaults; tests shrink them).
	dialTimeout  time.Duration
	writeTimeout time.Duration
}

// ensureLocked dials the link if needed. Callers hold l.mu.
func (l *lazyUplink) ensureLocked() error {
	if l.link != nil {
		return nil
	}
	dt := l.dialTimeout
	if dt <= 0 {
		dt = defaultDialTimeout
	}
	link, err := echo.DialSendTimeout(l.addr, l.name, dt)
	if err != nil {
		return err
	}
	wt := l.writeTimeout
	if wt <= 0 {
		wt = defaultWriteTimeout
	}
	link.SetWriteTimeout(wt)
	l.link = link
	return nil
}

// Repoint swings the uplink to a new peer address: the current
// connection (if any) is closed and the next submission dials addr.
func (l *lazyUplink) Repoint(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addr = addr
	if l.link != nil {
		l.link.Close()
		l.link = nil
	}
}

// Addr returns the peer address the uplink currently targets.
func (l *lazyUplink) Addr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addr
}

// submit runs one submission on the (re)dialed link, dropping the
// connection on failure so the next call redials.
func (l *lazyUplink) submit(do func(*echo.SendLink) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensureLocked(); err != nil {
		return err
	}
	if err := do(l.link); err != nil {
		l.link.Close()
		l.link = nil
		return err
	}
	return nil
}

// Submit implements core.Sender (control links).
func (l *lazyUplink) Submit(e *event.Event) error {
	return l.submit(func(link *echo.SendLink) error { return link.Submit(e) })
}

// SubmitOwned implements core.DataSender (data links): the whole batch
// rides one framed write on the underlying echo.SendLink, which only
// encodes the views into its write buffer, so nothing outlives the call
// and the caller's slabs stay reusable.
func (l *lazyUplink) SubmitOwned(events []*event.Event, ref event.Ref) error {
	return l.submit(func(link *echo.SendLink) error { return link.SubmitOwned(events, ref) })
}

// dialReconnecting returns a lazyUplink whose first dial has already
// succeeded, so an unreachable address still fails fast at startup.
func dialReconnecting(addr, name string) (*lazyUplink, error) {
	l := &lazyUplink{addr: addr, name: name}
	l.mu.Lock()
	err := l.ensureLocked()
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Close shuts the current link down.
func (l *lazyUplink) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.link != nil {
		err := l.link.Close()
		l.link = nil
		return err
	}
	return nil
}

// mirrorSite bundles everything a running mirror site owns.
type mirrorSite struct {
	Mirror *core.MirrorSite
	Front  *httpfront.Front
	// Obs is the site-wide metrics registry, served at /metrics and
	// dumped by -metricsdump; Tracer feeds its lifecycle histograms.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	// Applier consumes the adaptation directives the central
	// piggybacks on checkpoint traffic (and delivers via recovery
	// snapshots), installing them on Mirror with round-watermark
	// dedup; it backs the site's adapt_regime_id gauge.
	Applier *adapt.Applier
	// Addr and HTTPAddr are the bound listen addresses.
	Addr     string
	HTTPAddr string
	site     string
	srv      *echo.Server
	bus      *echo.Bus
	uplink   *lazyUplink
	// takeover is the wire-takeover runtime (nil when disarmed);
	// promoted holds the central this site became after a takeover.
	takeover *takeoverRuntime
	promoted atomic.Pointer[promotedCentral]
}

// startMirror assembles a mirror site: an event-channel server
// exporting its data and control channels, a (lazily dialed) uplink
// to the central site, and an HTTP front.
func startMirror(opts mirrorOptions) (*mirrorSite, error) {
	s := &mirrorSite{bus: echo.NewBus(), Obs: obs.NewRegistry(), site: fmt.Sprintf("mirror%d", opts.SiteID)}
	s.Tracer = obs.NewTracer(s.Obs)
	registerSlabMetrics(s.Obs)
	uplink := &lazyUplink{addr: opts.Central, name: chanCtrlUp}
	s.uplink = uplink
	s.Applier = adapt.NewApplier(nil)
	s.Applier.RegisterMetrics(s.Obs, fmt.Sprintf("mirror%d", opts.SiteID))

	s.Mirror = core.NewMirrorSite(core.MirrorSiteConfig{
		Main: core.MainConfig{
			EDE:            ede.Config{Model: costmodel.Default, StatePadding: opts.StatePad, Shards: opts.Shards},
			RequestWorkers: opts.ReqWorkers,
		},
		Model:          costmodel.Default,
		CPU:            &costmodel.CPU{},
		SiteID:         uint8(opts.SiteID),
		Standby:        opts.Standby,
		StandbyHorizon: opts.StandbyHorizon,
		Obs:            s.Obs,
		Tracer:         s.Tracer,
		OnPiggyback: func(round uint64, b []byte) {
			s.Applier.Apply(round, b)
		},
		CtrlUp: uplink,
	})
	s.Applier.SetInstall(adapt.InstallMirrorRegime(s.Mirror))

	data, err := s.bus.Open(chanData)
	if err != nil {
		s.Close()
		return nil, err
	}
	data.SubscribeBatch(s.Mirror.HandleData, func(es []*event.Event, ref event.Ref) {
		_ = s.Mirror.HandleOwnedBatch(es, ref)
	})
	ctrl, err := s.bus.Open(chanCtrlDown)
	if err != nil {
		s.Close()
		return nil, err
	}
	ctrl.Subscribe(s.handleCtrlDown)

	// Arm the takeover runtime before the event-channel server starts:
	// handleCtrlDown reads s.takeover from connection goroutines.
	if opts.TakeoverBudget > 0 && len(opts.Peers) > 0 {
		t, err := newTakeoverRuntime(s, opts)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.takeover = t
	}

	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listening on %s: %w", opts.Listen, err)
	}
	s.Addr = ln.Addr().String()
	s.srv = echo.NewServer(s.bus)
	go s.srv.Serve(ln)

	s.Front = httpfront.NewWithRegistry(s.Mirror.Main(), s.Obs)
	s.Front.SetStatus(s.Status)
	httpAddr, err := s.Front.Listen(opts.HTTP)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.HTTPAddr = httpAddr

	if s.takeover != nil {
		s.takeover.start()
	}
	return s, nil
}

// handleCtrlDown dispatches control-downlink traffic: takeover frames
// (TAKEOVER announcements, ELECT claims) go to the takeover runtime,
// everything else to the mirror's checkpoint state machine.
func (s *mirrorSite) handleCtrlDown(e *event.Event) {
	if t := s.takeover; t != nil && t.handleControl(e) {
		return
	}
	s.Mirror.HandleControl(e)
}

// Status builds this site's status document: the mirror-local view
// (applier-held regime, monitored variables), or — after a wire
// takeover promoted this site — the full central document. Either way
// an armed takeover runtime reports its state.
func (s *mirrorSite) Status() status.Document {
	var doc status.Document
	if pc := s.promoted.Load(); pc != nil {
		doc = status.Central(status.CentralSources{Site: s.site, Central: pc.Central})
	} else {
		doc = status.Mirror(s.site, s.Mirror, s.Applier)
	}
	if s.takeover != nil {
		doc.Takeover = s.takeover.Info()
	}
	return doc
}

// Close tears the site down.
func (s *mirrorSite) Close() error {
	if s.takeover != nil {
		s.takeover.stopAndWait()
	}
	if s.Front != nil {
		s.Front.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if pc := s.promoted.Load(); pc != nil {
		pc.Close()
	}
	if s.Mirror != nil {
		s.Mirror.Close()
	}
	if s.uplink != nil {
		s.uplink.Close()
	}
	if s.bus != nil {
		s.bus.Close()
	}
	return nil
}
