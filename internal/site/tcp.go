package site

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/oislog"
	"adaptmirror/internal/simnet"
	"adaptmirror/internal/status"
	"adaptmirror/internal/vclock"
)

// Channel names of the deployed wire protocol. Sources send to the
// central site's "ingress"; the central dials each mirror's "data" and
// "ctrl.down"; mirrors dial the central's "ctrl.up".
const (
	ChanIngress  = "ingress"
	ChanData     = "data"
	ChanCtrlDown = "ctrl.down"
	ChanCtrlUp   = "ctrl.up"
	// ChanUpdates carries the central EDE's output stream; thin
	// clients (cmd/oisclient) subscribe to it with recv links.
	ChanUpdates = "updates"
)

// CentralOptions configure a central site on TCP.
type CentralOptions struct {
	// Config is the transport-independent part, supplied whole by the
	// caller: cost model, CPUs, registry, tracer, histograms, stream
	// count, parameters, the main unit's configuration. The runtime
	// fills in Mirrors (a reconnecting link pair per address), sets
	// NoMirror when there are none, and points a nil Main.Out at the
	// site's exported updates channel.
	Config core.CentralConfig
	// Listen is the event-channel address; HTTP the client front's
	// ("" runs no front).
	Listen string
	HTTP   string
	// Mirrors are the mirror sites' event-channel addresses; a site's
	// index here is its site ID.
	Mirrors []string
	// Shaping applies to every connection the site dials.
	Shaping simnet.Profile
	// Selective, when positive, installs FAA-position overwriting with
	// this run length.
	Selective int
	// LogDir, when non-empty, durably records every client state
	// update on the updates channel in a segmented operations log (the
	// paper's logging database consumer).
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

// CentralSite bundles everything a running central site owns: an
// epoch-0 central, or the central a mirror site becomes by winning a
// wire takeover (sharing that site's bus and front).
type CentralSite struct {
	Central *core.Central
	// Front is nil when no HTTP address was configured.
	Front *httpfront.Front
	// Bus holds the site's exported channels.
	Bus *echo.Bus
	// Controller is non-nil when runtime adaptation is enabled; Audit
	// is its transition log (durable when AuditPath was configured).
	Controller *adapt.Controller
	Audit      *obs.AuditLog
	// Log is non-nil when LogDir was configured.
	Log *oislog.Log
	// Addr and HTTPAddr are the bound listen addresses.
	Addr     string
	HTTPAddr string
	// name labels the site in its status document and log lines; self
	// is a promoted site's own manifest slot (-1 at epoch 0).
	name string
	self int
	srv  *echo.Server
	// links holds each manifest slot's data and ctrl.down link, in turn.
	links []*Link
	// rejoins counts the recovery transfers ctrl.up started.
	rejoins admission
}

// FamUpdateDelay is the paper's update delay at the central site. Every
// central exports it; cluster.New records into the same family.
var FamUpdateDelay = obs.Declare("update_delay_seconds", obs.KindHistogram, "Central update delay, ingress to EDE emission.")

// wireMissBudget is every wire central's failure-detector budget in
// consecutive checkpoint rounds (rounds count events, not time). On
// loopback, a detector that never fires recorded the longest streak a
// healthy mirror missed: 19, 16 and 19 under the benchmark's
// stream_saturate (seeds 1-3, 10 s each), 7 under stream_steady, 6
// under init_storm. The in-process default of 8 would exclude healthy
// mirrors there; 256 leaves at least a 13x margin.
const wireMissBudget = 256

// StartCentral assembles a central site: send links to every mirror
// (each slot excluded until its mirror asks to rejoin), an event-channel
// server for ingress and control-up traffic, and optionally an HTTP
// front for client requests.
func StartCentral(opts CentralOptions) (*CentralSite, error) {
	s := &CentralSite{Bus: echo.NewBus(), name: "central", self: -1}
	if err := s.start(opts); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *CentralSite) start(opts CentralOptions) error {
	cfg := opts.Config
	RegisterSlabMetrics(cfg.Obs)
	if cfg.Main.DelayHist == nil {
		cfg.Main.DelayHist = cfg.Obs.Histogram(FamUpdateDelay)
	}

	// The central EDE's output stream is exported on the updates
	// channel for remote thin clients, and optionally tee'd into the
	// durable operations log.
	updates, err := s.Bus.Open(ChanUpdates)
	if err != nil {
		return err
	}
	if cfg.Main.Out == nil {
		cfg.Main.Out = updates
	}
	if opts.LogDir != "" {
		s.Log, err = oislog.Open(opts.LogDir, oislog.Options{})
		if err != nil {
			return err
		}
		updates.Subscribe(func(e *event.Event) { _ = s.Log.Append(e) })
	}

	if opts.Adapt {
		// The controller is complete before the central exists: its
		// sample hook runs on connection goroutines.
		fn1 := adapt.Regime{ID: 1, Name: "coalesce-10/chkpt-50", Coalesce: true, MaxCoalesce: 10, OverwriteLen: opts.Selective, CheckpointFreq: 50}
		fn2 := adapt.Regime{ID: 2, Name: "overwrite-20/chkpt-100", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
		s.Controller = adapt.NewController(fn1, fn2, nil)
		primary, secondary := opts.AdaptPrimary, opts.AdaptSecondary
		if primary <= 0 {
			primary = 100
		}
		if secondary <= 0 {
			secondary = primary / 2
		}
		s.Controller.SetMonitorValues(adapt.VarPending, primary, secondary)
		s.Controller.RegisterMetrics(cfg.Obs)
		s.Audit = obs.NewAuditLog(0)
		if opts.AuditPath != "" {
			if err := s.Audit.OpenDurable(opts.AuditPath); err != nil {
				return fmt.Errorf("opening audit log: %w", err)
			}
		}
		s.Controller.SetAudit(s.Audit)
		onSample := cfg.OnMirrorSample
		cfg.OnMirrorSample = func(site int, sample core.Sample) {
			if onSample != nil {
				onSample(site, sample)
			}
			s.Controller.ObserveSite(site, sample)
		}
	}
	for _, addr := range opts.Mirrors {
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return fmt.Errorf("mirror address: %w", err)
		}
	}
	err = s.assemble(opts.Mirrors, opts.Shaping, func(mirrors []core.MirrorLink, detector core.MembershipConfig) (*core.Central, error) {
		cfg.Mirrors = mirrors
		cfg.NoMirror = cfg.NoMirror || len(mirrors) == 0
		c := core.NewCentral(cfg)
		admitNone(c, len(mirrors), detector)
		if opts.Selective > 0 {
			c.InstallSelective(opts.Selective)
		}
		if opts.HTTP != "" { // the front serves c's main unit
			s.Front = httpfront.NewWithRegistry(c.Main(), cfg.Obs)
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	if s.Controller != nil {
		s.Controller.SetApply(adapt.InstallRegime(s.Central))
		s.Controller.Attach(s.Central)
	}

	if s.Addr, s.srv, err = serve(s.Bus, opts.Listen); err != nil {
		return err
	}
	if s.Front != nil {
		s.Front.SetStatus(s.Status)
		if s.HTTPAddr, err = s.Front.Listen(opts.HTTP); err != nil {
			return err
		}
	}
	return nil
}

// assemble makes s a wire central on s.Bus: a data and a ctrl.down link
// per manifest slot (closed at slot s.self, so they fail fast), the
// central build makes over them with the wire detector and every slot
// excluded (an epoch-0 central starts fresh, a takeover adopts the
// mirror's state), the ingress and ctrl.up subscriptions, and client
// updates on s.Front. Nothing is dialed yet.
func (s *CentralSite) assemble(manifest []string, shaping simnet.Profile, build func([]core.MirrorLink, core.MembershipConfig) (*core.Central, error)) error {
	mirrors := make([]core.MirrorLink, len(manifest))
	for i, addr := range manifest {
		data := NewLink(addr, ChanData, LinkOptions{Shaping: shaping, WriteTimeout: rejoinWriteTimeout})
		ctrl := NewLink(addr, ChanCtrlDown, LinkOptions{Shaping: shaping})
		if i == s.self {
			data.Close()
			ctrl.Close()
		}
		s.links = append(s.links, data, ctrl)
		mirrors[i] = core.MirrorLink{Data: data, Ctrl: ctrl}
	}
	var err error
	s.Central, err = build(mirrors, core.MembershipConfig{
		MissedRounds: wireMissBudget,
		OnFailure: func(i int) {
			if s.Controller != nil {
				// An excluded site's last sample row must not pin the regime.
				s.Controller.EvictSite(i)
			}
			if i != s.self {
				fmt.Printf("mirrord: %s: mirror %d excluded\n", s.name, i)
			}
		},
		OnRejoin: func(i int) { fmt.Printf("mirrord: %s: mirror %d rejoined\n", s.name, i) },
	})
	if err != nil {
		return err
	}
	ingress, err := s.Bus.Open(ChanIngress)
	if err != nil {
		return err
	}
	ingress.Subscribe(func(e *event.Event) { _ = s.Central.Ingest(e) })
	ctrlUp, err := s.Bus.Open(ChanCtrlUp)
	if err != nil {
		return err
	}
	ctrlUp.Subscribe(s.dispatchCtrlUp)
	if s.Front != nil {
		// Gate agents and similar clients may generate state updates;
		// they enter through the central site's receiving task.
		s.Front.EnableUpdates(s.Central.Ingest)
	}
	return nil
}

// dispatchCtrlUp sends checkpoint replies to the coordinator. A
// RECOVERY_REQ rejoins its slot from the cut it carries through the
// current detector, on a goroutine of its own so a state transfer never
// blocks the read loop; one for s.self's slot or after Close is dropped.
// A request from a slot still counted live comes from a mirror that
// restarted and lost its stream, so the slot is excluded first.
func (s *CentralSite) dispatchCtrlUp(e *event.Event) {
	if e.Type != event.TypeRecoveryRequest {
		s.Central.HandleControl(e)
		return
	}
	slot, cut := int(e.Seq), e.VT.Clone()
	if slot == s.self || !s.rejoins.admit() {
		return
	}
	member := s.Central.Membership()
	if member.Alive(slot) {
		_ = member.Exclude(slot)
	}
	go func() {
		defer s.rejoins.wg.Done()
		_, err := member.RejoinSince(slot, cut)
		if err != nil && !errors.Is(err, core.ErrNotExcluded) {
			fmt.Printf("mirrord: %s: rejoining mirror %d: %v\n", s.name, slot, err)
		}
	}()
}

// serve starts an event-channel server for bus on addr.
func serve(bus *echo.Bus, addr string) (string, *echo.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("listening on %s: %w", addr, err)
	}
	srv := echo.NewServer(bus)
	go srv.Serve(ln)
	return ln.Addr().String(), srv, nil
}

// Status builds the aggregated cluster-status document served at
// /cluster/status: the central regime and monitored variables, per-link
// wire telemetry, per-site rows from the controller's last piggybacked
// samples, rejoin accounting, and the adaptation audit tail.
func (s *CentralSite) Status() status.Document {
	return status.Central(status.CentralSources{
		Site:       s.name,
		Central:    s.Central,
		Controller: s.Controller,
		Audit:      s.Audit,
	})
}

// Close tears the site down, waiting for started rejoins once inputs
// stop, and returns the joined errors of its durable logs. A promoted
// central's shared bus and front close twice, harmlessly.
func (s *CentralSite) Close() error {
	if s.Front != nil {
		s.Front.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.rejoins.stop()
	if s.Central != nil {
		s.Central.Close()
	}
	var errs []error
	if s.Log != nil {
		errs = append(errs, s.Log.Close())
	}
	if s.Audit != nil {
		errs = append(errs, s.Audit.Close())
	}
	for _, l := range s.links {
		l.Close()
	}
	s.Bus.Close()
	return errors.Join(errs...)
}

// admission counts admitted work and refuses more once stopped, so a
// site's Close can wait for everything it let in.
type admission struct {
	mu      sync.Mutex
	stopped bool
	wg      sync.WaitGroup
}

// admit registers one piece of work unless stopped; an admitted caller
// calls wg.Done when finished.
func (a *admission) admit() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return false
	}
	a.wg.Add(1)
	return true
}

// stop refuses further work and waits for the admitted work.
func (a *admission) stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.wg.Wait()
}

// MirrorOptions configure a mirror site on TCP.
type MirrorOptions struct {
	// Config is the transport-independent part, supplied whole by the
	// caller: cost model, CPU, registry, tracer, the main unit's
	// configuration, SiteID (this mirror's index in the central site's
	// mirror list, stamped on checkpoint replies) and Standby. CtrlUp
	// and OnPiggyback are the runtime's. A promoted site's central
	// inherits Model, CPU, Obs and Tracer.
	Config core.MirrorSiteConfig
	// Listen is the event-channel address; HTTP the client front's
	// ("" runs no front).
	Listen string
	HTTP   string
	// Central is the central site's event-channel address; it may be
	// unknown ("") at start and set later through Follow.
	Central string
	// Shaping applies to every connection the site dials.
	Shaping simnet.Profile
	// Peers is the shared cluster manifest: every mirror site's
	// event-channel address, indexed by site ID (entry SiteID is this
	// site's own). Together with TakeoverBudget > 0 it arms the
	// wire-takeover runtime; see takeover.go.
	Peers []string
	// TakeoverBudget is how many consecutive detection intervals
	// without a new checkpoint round the site tolerates before probing
	// whether the central is dead (0 disarms wire takeover).
	TakeoverBudget int
	// TakeoverInterval is the detection ticker period (0 =
	// DefaultTakeoverInterval). Align it with the expected checkpoint
	// round cadence.
	TakeoverInterval time.Duration
	// Advertise overrides the address announced to survivors after a
	// promotion (default Peers[SiteID]).
	Advertise string
}

// MirrorSite bundles everything a running mirror site owns.
type MirrorSite struct {
	*Mirror
	// Front is nil when no HTTP address was configured.
	Front *httpfront.Front
	// Uplink is the control link to the central site.
	Uplink *Link
	// Addr and HTTPAddr are the bound listen addresses.
	Addr     string
	HTTPAddr string
	cfg      core.MirrorSiteConfig
	shaping  simnet.Profile
	srv      *echo.Server
	bus      *echo.Bus
	// takeover is the wire-takeover runtime (nil when disarmed);
	// promoted holds the central this site became after a takeover.
	takeover *takeoverRuntime
	promoted atomic.Pointer[promotion]
	// rejoinCut is the cut the site's RECOVERY_REQ presents, nil while
	// no request is wanted; a kick makes rejoinLoop ask at once.
	rejoinCut  atomic.Pointer[vclock.VC]
	rejoinKick chan struct{}
	stopRejoin context.CancelFunc
	rejoinDone sync.WaitGroup
}

// rejoinInterval is how often a mirror site repeats its RECOVERY_REQ
// while no recovery transfer has reached it.
const rejoinInterval = 250 * time.Millisecond

// StartMirror assembles a mirror site: an event-channel server
// exporting its data and control channels, a (lazily dialed) uplink to
// the central site, and optionally an HTTP front.
func StartMirror(opts MirrorOptions) (*MirrorSite, error) {
	ctx, stop := context.WithCancel(context.Background())
	s := &MirrorSite{
		bus:        echo.NewBus(),
		Uplink:     NewLink(opts.Central, ChanCtrlUp, LinkOptions{Shaping: opts.Shaping}),
		shaping:    opts.Shaping,
		rejoinKick: make(chan struct{}, 1),
		stopRejoin: stop,
	}
	s.rejoinDone.Add(1)
	go s.rejoinLoop(ctx)
	if err := s.start(opts); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *MirrorSite) start(opts MirrorOptions) error {
	RegisterSlabMetrics(opts.Config.Obs)
	opts.Config.CtrlUp = s.Uplink
	s.cfg = opts.Config
	s.Mirror = NewMirror(opts.Config)

	data, err := s.bus.Open(ChanData)
	if err != nil {
		return err
	}
	data.SubscribeBatch(s.Site.HandleData, func(es []*event.Event, ref event.Ref) {
		if cut := s.rejoinCut.Load(); cut != nil && slices.ContainsFunc(es, func(e *event.Event) bool {
			return e.Type == event.TypeRecoveryState || e.Type == event.TypeRecoveryDelta
		}) {
			s.rejoinCut.CompareAndSwap(cut, nil) // a recovery transfer has arrived
		}
		_ = s.Site.HandleOwnedBatch(es, ref)
	})
	ctrl, err := s.bus.Open(ChanCtrlDown)
	if err != nil {
		return err
	}
	ctrl.Subscribe(s.handleCtrlDown)

	// Arm the takeover runtime before the event-channel server starts:
	// handleCtrlDown reads s.takeover from connection goroutines.
	if opts.TakeoverBudget > 0 && len(opts.Peers) > 0 {
		if s.takeover, err = newTakeoverRuntime(s, opts); err != nil {
			return err
		}
	}

	if s.Addr, s.srv, err = serve(s.bus, opts.Listen); err != nil {
		return err
	}
	if opts.HTTP != "" {
		s.Front = httpfront.NewWithRegistry(s.Site.Main(), opts.Config.Obs)
		s.Front.SetStatus(s.Status)
		if s.HTTPAddr, err = s.Front.Listen(opts.HTTP); err != nil {
			return err
		}
	}
	if s.takeover != nil {
		s.takeover.start()
	}
	if opts.Central != "" {
		s.askRejoin(s.Site.Backup().Committed())
	}
	return nil
}

// Follow points the site's uplink at the central at addr and asks that
// central to admit the site from its committed cut.
func (s *MirrorSite) Follow(addr string) {
	s.Uplink.Repoint(addr)
	s.askRejoin(s.Site.Backup().Committed())
}

// askRejoin makes the site ask the central its uplink points at to
// admit it from cut: at once, then every rejoinInterval until a
// recovery transfer arrives.
func (s *MirrorSite) askRejoin(cut vclock.VC) {
	s.rejoinCut.Store(&cut)
	select {
	case s.rejoinKick <- struct{}{}:
	default:
	}
}

// rejoinLoop sends the site's RECOVERY_REQ {Seq: SiteID, VT: cut} while
// one is wanted, skipping a kick that finds the uplink's central asked
// less than rejoinInterval ago (a repeated takeover announcement), and
// retrying failed submissions on the next tick.
func (s *MirrorSite) rejoinLoop(ctx context.Context) {
	defer s.rejoinDone.Done()
	tick := time.NewTicker(rejoinInterval)
	defer tick.Stop()
	var sentTo string
	var sentAt time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.rejoinKick:
		case <-tick.C:
		}
		cut, addr := s.rejoinCut.Load(), s.Uplink.Addr()
		if cut == nil || addr == sentTo && time.Since(sentAt) < rejoinInterval {
			continue
		}
		_ = s.Uplink.Submit(&event.Event{Type: event.TypeRecoveryRequest, Seq: uint64(s.cfg.SiteID), VT: *cut})
		sentTo, sentAt = addr, time.Now()
	}
}

// handleCtrlDown dispatches control-downlink traffic: takeover frames
// (TAKEOVER announcements, ELECT claims) go to the takeover runtime,
// everything else to the mirror's checkpoint state machine.
func (s *MirrorSite) handleCtrlDown(e *event.Event) {
	if t := s.takeover; t != nil && t.handleControl(e) {
		return
	}
	s.Site.HandleControl(e)
}

// Promoted returns the central this site became by winning a wire
// takeover (nil before that).
func (s *MirrorSite) Promoted() *Promoted {
	if p := s.promoted.Load(); p != nil {
		return p.adopted
	}
	return nil
}

// Status builds this site's status document: the mirror-local view
// (applier-held regime, monitored variables), or — after a wire
// takeover promoted this site — the full central document. Either way
// an armed takeover runtime reports its state.
func (s *MirrorSite) Status() status.Document {
	var doc status.Document
	if p := s.promoted.Load(); p != nil {
		doc = p.central.Status()
	} else {
		doc = status.Mirror(s.Name, s.Site, s.Applier)
	}
	if s.takeover != nil {
		doc.Takeover = s.takeover.Info()
	}
	return doc
}

// Close tears the site down.
func (s *MirrorSite) Close() error {
	// Inputs stop first: the takeover runtime then drops anything later
	// and waits for its admitted work before the promoted central closes.
	if s.Front != nil {
		s.Front.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.takeover != nil {
		s.takeover.stopAndWait()
	}
	s.stopRejoin()
	s.rejoinDone.Wait()
	if p := s.promoted.Load(); p != nil {
		p.central.Close()
	}
	s.Site.Close()
	s.Uplink.Close()
	s.bus.Close()
	return nil
}
