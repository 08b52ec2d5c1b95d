package site

// Wire-level central takeover: a deployed cluster survives its central
// over TCP by the same adoption step (Mirror.Promote, epoch-fenced
// checkpoint rounds) the in-process failover uses. A ticker-driven
// core.StandbyMonitor plus a TCP liveness probe detects the death; the
// standby promotes directly, or the mirrors elect by committed cut
// (ELECT claims on ctrl.down); the promoted site announces itself in
// TAKEOVER frames until every survivor has repointed its uplink and
// rejoined from its RejoinCut. First-accepted-address-per-epoch fencing
// keeps two would-be centrals from splitting the cluster. The protocol
// is specified in DESIGN.md, "Wire takeover".

import (
	"fmt"
	"net"
	"sync"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/status"
	"adaptmirror/internal/vclock"
)

const (
	// DefaultTakeoverInterval is the detection ticker period; align it
	// with the expected checkpoint-round cadence.
	DefaultTakeoverInterval = 500 * time.Millisecond
	// defaultPromotedChkptFreq is the checkpoint frequency a promoted
	// central starts with when no directive ever told the mirror the
	// central's parameters.
	defaultPromotedChkptFreq = 50
	// rejoinWriteTimeout bounds recovery-transfer writes on the
	// promoted central's data downlinks (snapshots are much larger
	// than control frames).
	rejoinWriteTimeout = 30 * time.Second
	// promotedMissBudget is the promoted central's failure-detector
	// budget in consecutive checkpoint rounds. Rounds are traffic-driven
	// — a source burst can start thousands per second — while survivor
	// replies lag a full TCP round trip, so the in-process default (8)
	// falsely excludes healthy survivors mid-burst and the fan-out's
	// liveness gate then silently discards their batches. The wire
	// detector only needs to unstick commits when a survivor really
	// dies; hundreds of outstanding rounds resolve in milliseconds at
	// burst rate, so a generous budget costs nothing.
	promotedMissBudget = 256
)

// Takeover roles (status.Takeover.Role).
const (
	roleFollower  = "follower"
	roleStandby   = "standby"
	roleCandidate = "candidate"
	rolePromoted  = "promoted"
)

// promotedCentral is everything a mirror site owns after winning a
// takeover: the resumed central, its membership, and the downlinks to
// the surviving mirrors.
type promotedCentral struct {
	*Promoted
	Ann core.TakeoverAnnouncement
	// ctrl holds the per-slot ctrl.down links for announcements (nil
	// at the promoted site's own slot); links holds every dialed link
	// for Close.
	ctrl     []*Link
	links    []*Link
	rejoinMu []sync.Mutex
}

// Close shuts the promoted central and its downlinks down.
func (pc *promotedCentral) Close() error {
	pc.Central.Close()
	for _, l := range pc.links {
		l.Close()
	}
	return nil
}

// takeoverRuntime drives one mirror site's side of the wire-takeover
// protocol.
type takeoverRuntime struct {
	s         *MirrorSite
	peers     []string
	self      int
	standby   bool
	budget    int
	interval  time.Duration
	advertise string

	mu    sync.Mutex
	mon   *core.StandbyMonitor
	phase string
	// seenEpoch/seenAddr fence announcements: the first accepted
	// announcement per epoch wins, any other address is rejected.
	seenEpoch uint64
	seenAddr  string
	// claims records rival election claims per contested epoch;
	// lastReply throttles claim replies per epoch.
	claims    map[uint64]map[uint8]core.ElectionClaim
	lastReply map[uint64]time.Time
	myClaim   core.ElectionClaim
	// firedRound is the round watermark at failure declaration; rounds
	// advancing past it in the same epoch prove the central alive and
	// abort a candidacy.
	firedRound     uint64
	nextDecision   time.Time
	awaitingWinner bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newTakeoverRuntime validates the manifest and builds the runtime
// (not yet ticking; call start).
func newTakeoverRuntime(s *MirrorSite, opts MirrorOptions) (*takeoverRuntime, error) {
	self := int(opts.Config.SiteID)
	if self >= len(opts.Peers) {
		return nil, fmt.Errorf("takeover: site %d outside the peers manifest (%d entries)", self, len(opts.Peers))
	}
	interval := opts.TakeoverInterval
	if interval <= 0 {
		interval = DefaultTakeoverInterval
	}
	advertise := opts.Advertise
	if advertise == "" {
		advertise = opts.Peers[self]
	}
	return &takeoverRuntime{
		s:         s,
		peers:     append([]string(nil), opts.Peers...),
		self:      self,
		standby:   opts.Config.Standby,
		budget:    opts.TakeoverBudget,
		interval:  interval,
		advertise: advertise,
		mon:       core.NewStandbyMonitor(s.Site.LastRound, opts.TakeoverBudget),
		phase:     roleFollower,
		claims:    make(map[uint64]map[uint8]core.ElectionClaim),
		lastReply: make(map[uint64]time.Time),
		stop:      make(chan struct{}),
	}, nil
}

func (t *takeoverRuntime) start() {
	t.wg.Add(1)
	go t.run()
}

func (t *takeoverRuntime) stopAndWait() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

func (t *takeoverRuntime) run() {
	defer t.wg.Done()
	tk := time.NewTicker(t.interval)
	defer tk.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tk.C:
			t.tick()
		}
	}
}

// curEpochLocked is the highest central epoch this site knows: from
// accepted announcements or from the epoch partition of its observed
// rounds. Callers hold t.mu.
func (t *takeoverRuntime) curEpochLocked() uint64 {
	return max(t.seenEpoch, t.s.Site.LastRound()>>checkpoint.EpochShift)
}

func (t *takeoverRuntime) electWindow() time.Duration { return 2 * t.interval }

func (t *takeoverRuntime) deferWindow() time.Duration {
	return time.Duration(t.budget+3) * t.interval
}

// tick runs one detection interval.
func (t *takeoverRuntime) tick() {
	t.mu.Lock()
	switch t.phase {
	case rolePromoted:
		t.mu.Unlock()
		return
	case roleCandidate:
		t.candidateTickLocked() // unlocks t.mu
		return
	}
	// Before the first observed round there is no heartbeat to miss:
	// the documented startup order brings mirrors up before the
	// central exists.
	if t.s.Site.LastRound() == 0 && t.seenEpoch == 0 {
		t.mu.Unlock()
		return
	}
	if !t.mon.Tick() {
		t.mu.Unlock()
		return
	}
	// Missed-round budget exhausted. Rounds only advance with traffic,
	// so first distinguish "idle" from "dead": a live central still
	// accepts TCP on its event-channel address.
	if t.probeAlive(t.s.Uplink.Addr()) {
		t.mon = core.NewStandbyMonitor(t.s.Site.LastRound, t.budget)
		t.mu.Unlock()
		return
	}
	t.s.Takeover.Fired.Add(1)
	epoch := t.curEpochLocked() + 1
	if t.standby {
		fmt.Printf("mirrord: %s: central dead (missed-round budget %d exhausted) — standby takeover, epoch %d\n",
			t.s.Name, t.budget, epoch)
		t.promoteLocked(epoch)
		t.mu.Unlock()
		return
	}
	// No standby designated: open an election for the next epoch.
	t.phase = roleCandidate
	t.firedRound = t.s.Site.LastRound()
	t.myClaim = core.ElectionClaim{Epoch: epoch, Site: uint8(t.self), Cut: t.s.Site.Backup().Committed()}
	t.nextDecision = time.Now().Add(t.electWindow())
	t.awaitingWinner = false
	claim := t.myClaim
	t.mu.Unlock()
	fmt.Printf("mirrord: %s: central dead — electing for epoch %d (cut %s)\n", t.s.Name, epoch, claim.Cut)
	t.broadcastClaim(claim)
}

// candidateTickLocked advances an open election. Called with t.mu held
// and responsible for releasing it.
func (t *takeoverRuntime) candidateTickLocked() {
	// Rounds resuming in the pre-election epoch prove the central was
	// alive after all: abort.
	lr := t.s.Site.LastRound()
	if lr > t.firedRound && lr>>checkpoint.EpochShift == t.myClaim.Epoch-1 {
		t.phase = roleFollower
		t.mon = core.NewStandbyMonitor(t.s.Site.LastRound, t.budget)
		t.mu.Unlock()
		return
	}
	if time.Now().Before(t.nextDecision) {
		t.mu.Unlock()
		return
	}
	epoch := t.myClaim.Epoch
	if t.awaitingWinner {
		// The better-placed rival never announced (it may have died
		// too). Drop recorded rivals — live ones re-assert on seeing
		// our claim — and re-open the election.
		delete(t.claims, epoch)
		t.awaitingWinner = false
		t.myClaim.Cut = t.s.Site.Backup().Committed()
		t.nextDecision = time.Now().Add(t.electWindow())
		claim := t.myClaim
		t.mu.Unlock()
		t.broadcastClaim(claim)
		return
	}
	for _, rival := range t.claims[epoch] {
		if rival.Site == uint8(t.self) {
			continue
		}
		if !t.myClaim.Beats(rival) {
			t.awaitingWinner = true
			t.nextDecision = time.Now().Add(t.deferWindow())
			t.mu.Unlock()
			return
		}
	}
	fmt.Printf("mirrord: %s: election won — promoting, epoch %d\n", t.s.Name, epoch)
	t.promoteLocked(epoch)
	t.mu.Unlock()
}

// probeAlive reports whether addr still accepts TCP connections. The
// timeout is floored at a full second regardless of how aggressive the
// detection interval is: a killed central refuses instantly, so a
// generous timeout costs nothing there, while a short one risks a
// false death verdict (and a spurious election) against a live but
// momentarily slow peer.
func (t *takeoverRuntime) probeAlive(addr string) bool {
	if addr == "" {
		return false
	}
	conn, err := net.DialTimeout("tcp", addr, min(max(t.interval, time.Second), 5*time.Second))
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// promoteLocked converts this mirror site into the epoch's central:
// Mirror.Promote adopts the site's state with every survivor slot
// excluded, and the announcement loop re-admits them as they redial.
// Callers hold t.mu.
func (t *takeoverRuntime) promoteLocked(epoch uint64) {
	s := t.s
	// Downlinks to every survivor, indexed by ORIGINAL site ID so the
	// SiteID survivors stamp on checkpoint replies keeps addressing
	// the right slot; our own slot gets a closed link, which only ever
	// fails fast, and stays excluded forever.
	mirrors := make([]core.MirrorLink, len(t.peers))
	pc := &promotedCentral{
		ctrl:     make([]*Link, len(t.peers)),
		rejoinMu: make([]sync.Mutex, len(t.peers)),
	}
	for i, addr := range t.peers {
		if i == t.self {
			dead := NewLink("", ChanData, LinkOptions{})
			dead.Close()
			mirrors[i] = core.MirrorLink{Data: dead, Ctrl: dead}
			continue
		}
		data := NewLink(addr, ChanData, LinkOptions{Shaping: s.shaping, WriteTimeout: rejoinWriteTimeout})
		ctrl := NewLink(addr, ChanCtrlDown, LinkOptions{Shaping: s.shaping})
		pc.links = append(pc.links, data, ctrl)
		pc.ctrl[i] = ctrl
		mirrors[i] = core.MirrorLink{Data: data, Ctrl: ctrl}
	}
	pc.Promoted = s.Promote(epoch, core.CentralConfig{
		Params:  core.Params{CheckpointFreq: defaultPromotedChkptFreq},
		Model:   s.cfg.Model,
		CPU:     s.cfg.CPU,
		Mirrors: mirrors,
		Obs:     s.cfg.Obs,
		Tracer:  s.cfg.Tracer,
	}, core.MembershipConfig{MissedRounds: promotedMissBudget})
	central := pc.Central
	pc.Ann = core.TakeoverAnnouncement{Epoch: epoch, Addr: t.advertise, Anchor: pc.Anchor}

	// The site's event-channel server now serves the central role too:
	// sources feed ingress, survivors reply on ctrl.up. The HTTP front
	// keeps serving /init from the adopted main unit untouched, and
	// additionally accepts client updates like any central.
	if ingress, err := s.bus.Open(ChanIngress); err == nil {
		ingress.Subscribe(func(e *event.Event) { _ = central.Ingest(e) })
	}
	if ctrlUp, err := s.bus.Open(ChanCtrlUp); err == nil {
		ctrlUp.Subscribe(func(e *event.Event) { t.handleCtrlUp(pc, e) })
	}
	if s.Front != nil {
		s.Front.EnableUpdates(central.Ingest)
	}

	t.phase = rolePromoted
	t.seenEpoch = epoch
	t.seenAddr = t.advertise
	s.promoted.Store(pc)
	t.wg.Add(1)
	go t.announceLoop(pc)
}

// announceLoop broadcasts the takeover on every still-excluded
// survivor's ctrl.down. It never exits while the site runs: after the
// initial convergence it keeps ticking as the re-admission heartbeat,
// so a survivor the failure detector excludes later — a stall, a
// crash-and-restart on the same address — hears the announcement
// again, re-sends its rejoin request, and is re-admitted through the
// same RejoinSince path. Converged ticks send nothing.
func (t *takeoverRuntime) announceLoop(pc *promotedCentral) {
	defer t.wg.Done()
	frame := &event.Event{Type: event.TypeTakeover, Seq: pc.Ann.Epoch, Payload: pc.Ann.Encode()}
	tk := time.NewTicker(t.interval)
	defer tk.Stop()
	converged := false
	for {
		pending := false
		for i, ctrl := range pc.ctrl {
			if ctrl == nil || pc.Member.Alive(i) {
				continue
			}
			pending = true
			_ = ctrl.Submit(frame)
		}
		if !pending && !converged {
			fmt.Printf("mirrord: %s: takeover epoch %d converged — every survivor rejoined\n", t.s.Name, pc.Ann.Epoch)
		}
		converged = !pending
		select {
		case <-t.stop:
			return
		case <-tk.C:
		}
	}
}

// handleCtrlUp routes the promoted central's ctrl.up traffic:
// checkpoint replies to the coordinator, recovery requests to rejoin
// service (on their own goroutine — a state transfer must not block
// the control channel's read loop).
func (t *takeoverRuntime) handleCtrlUp(pc *promotedCentral, e *event.Event) {
	if e.Type == event.TypeRecoveryRequest {
		slot := int(e.Seq)
		cut := e.VT.Clone()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveRejoin(pc, slot, cut)
		}()
		return
	}
	pc.Central.HandleControl(e)
}

// serveRejoin re-admits one survivor from its advertised cut.
func (t *takeoverRuntime) serveRejoin(pc *promotedCentral, slot int, cut vclock.VC) {
	if slot < 0 || slot >= len(pc.rejoinMu) || slot == t.self {
		return
	}
	pc.rejoinMu[slot].Lock()
	defer pc.rejoinMu[slot].Unlock()
	if pc.Member.Alive(slot) {
		return // duplicate request; already rejoined
	}
	if _, err := pc.Member.RejoinSince(slot, cut); err != nil {
		fmt.Printf("mirrord: %s: rejoining survivor %d: %v\n", t.s.Name, slot, err)
		return
	}
	fmt.Printf("mirrord: %s: survivor %d rejoined (cut %s)\n", t.s.Name, slot, cut)
}

// handleControl intercepts takeover frames on the mirror's ctrl.down
// channel; it reports whether it consumed the event.
func (t *takeoverRuntime) handleControl(e *event.Event) bool {
	switch e.Type {
	case event.TypeTakeover:
		if ann, err := core.DecodeTakeoverAnnouncement(e.Payload); err == nil {
			t.onAnnouncement(ann)
		}
		return true
	case event.TypeElect:
		if c, err := core.DecodeElectionClaim(e.Payload); err == nil {
			t.onClaim(c)
		}
		return true
	}
	return false
}

// onAnnouncement is the survivor side of a takeover: fence the epoch,
// repoint the uplink, and request re-admission from the right cut.
func (t *takeoverRuntime) onAnnouncement(ann core.TakeoverAnnouncement) {
	t.mu.Lock()
	if t.phase == rolePromoted {
		t.mu.Unlock()
		return
	}
	roundsEpoch := t.s.Site.LastRound() >> checkpoint.EpochShift
	switch {
	case ann.Epoch <= roundsEpoch || ann.Epoch < t.seenEpoch:
		// Stale: this site already runs in a same-or-newer epoch.
		t.mu.Unlock()
		return
	case ann.Epoch == t.seenEpoch:
		if ann.Addr != t.seenAddr {
			// Split-brain fencing: a second would-be central claiming
			// an epoch we already accepted from someone else.
			fmt.Printf("mirrord: %s: rejecting conflicting takeover claim for epoch %d from %s (accepted %s)\n",
				t.s.Name, ann.Epoch, ann.Addr, t.seenAddr)
			t.mu.Unlock()
			return
		}
		// Retry of the accepted takeover: re-send the rejoin request
		// below (the first one may have been lost).
	default:
		// Fresh takeover: accept, repoint, re-arm detection against
		// the new central.
		t.seenEpoch, t.seenAddr = ann.Epoch, ann.Addr
		t.phase = roleFollower
		t.mon = core.NewStandbyMonitor(t.s.Site.LastRound, t.budget)
		t.s.Takeover.Repoints.Add(1)
		t.s.Uplink.Repoint(ann.Addr)
		fmt.Printf("mirrord: %s: takeover epoch %d — repointing uplink to %s\n", t.s.Name, ann.Epoch, ann.Addr)
	}
	cut := RejoinCut(t.s.Site, ann.Anchor)
	t.mu.Unlock()
	req := &event.Event{Type: event.TypeRecoveryRequest, Seq: uint64(t.self), VT: cut}
	_ = t.s.Uplink.Submit(req)
}

// onClaim records a rival's election claim and answers with this
// site's own standing (throttled), so a candidate's decision sees
// every live peer even before that peer's own monitor fires.
func (t *takeoverRuntime) onClaim(c core.ElectionClaim) {
	t.s.Takeover.Claims.Add(1)
	t.mu.Lock()
	if int(c.Site) == t.self {
		t.mu.Unlock()
		return
	}
	if t.phase == rolePromoted {
		// A late candidate did not hear the takeover yet: answer its
		// claim with the announcement directly so it stands down
		// before its election window closes.
		pc := t.s.promoted.Load()
		t.mu.Unlock()
		if pc != nil && c.Epoch <= pc.Ann.Epoch && int(c.Site) < len(pc.ctrl) && pc.ctrl[c.Site] != nil {
			_ = pc.ctrl[c.Site].Submit(&event.Event{Type: event.TypeTakeover, Seq: pc.Ann.Epoch, Payload: pc.Ann.Encode()})
		}
		return
	}
	if c.Epoch <= t.curEpochLocked() {
		t.mu.Unlock()
		return
	}
	m := t.claims[c.Epoch]
	if m == nil {
		m = make(map[uint8]core.ElectionClaim)
		t.claims[c.Epoch] = m
	}
	m[c.Site] = c
	var reply *core.ElectionClaim
	var replyAddr string
	if now := time.Now(); int(c.Site) < len(t.peers) && now.Sub(t.lastReply[c.Epoch]) >= t.interval {
		t.lastReply[c.Epoch] = now
		rc := core.ElectionClaim{Epoch: c.Epoch, Site: uint8(t.self), Cut: t.s.Site.Backup().Committed()}
		reply, replyAddr = &rc, t.peers[c.Site]
	}
	t.mu.Unlock()
	if reply != nil {
		t.sendClaim(replyAddr, *reply)
	}
}

// broadcastClaim sends an election claim to every peer concurrently.
func (t *takeoverRuntime) broadcastClaim(c core.ElectionClaim) {
	for i, addr := range t.peers {
		if i == t.self {
			continue
		}
		addr := addr
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.sendClaim(addr, c)
		}()
	}
}

// sendClaim delivers one claim over a transient link (peers may be
// dead; failures are expected and ignored).
func (t *takeoverRuntime) sendClaim(addr string, c core.ElectionClaim) {
	link, err := echo.DialSendTimeout(addr, ChanCtrlDown, min(max(t.interval, 500*time.Millisecond), 2*time.Second))
	if err != nil {
		return
	}
	defer link.Close()
	if link.Submit(&event.Event{Type: event.TypeElect, Seq: c.Epoch, Stream: c.Site, Payload: c.Encode()}) == nil {
		t.s.Takeover.Claims.Add(1)
	}
}

// Info snapshots the runtime for /cluster/status.
func (t *takeoverRuntime) Info() *status.Takeover {
	t.mu.Lock()
	defer t.mu.Unlock()
	role := t.phase
	if role == roleFollower && t.standby {
		role = roleStandby
	}
	return &status.Takeover{
		Armed:       true,
		Role:        role,
		Budget:      t.budget,
		Missed:      t.mon.Missed(),
		Fired:       t.s.Takeover.Fired.Load() > 0,
		Epoch:       t.seenEpoch,
		CentralAddr: t.s.Uplink.Addr(),
		Claims:      t.s.Takeover.Claims.Load(),
		Repoints:    t.s.Takeover.Repoints.Load(),
	}
}
