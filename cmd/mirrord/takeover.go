package main

// Wire-level central takeover. PR 9 proved lossless central failover
// in-process (MirrorSite.Promote -> CentralConfig.Resume, epoch-fenced
// checkpoint rounds); this file makes a deployed mirrord cluster
// survive its central the same way, over TCP:
//
//   - Detection: a ticker drives core.StandbyMonitor against the
//     site's checkpoint-round watermark. After budget+1 intervals
//     without a new round the site probes the central's TCP address
//     (an idle but live central still accepts; a killed one refuses)
//     and, if the probe fails too, declares the central dead.
//   - Promotion: the designated -standby site promotes itself
//     directly. Without a standby, mirrors hold an election: each
//     candidate broadcasts an epoch-stamped ELECT claim on its peers'
//     ctrl.down channels; the highest committed cut wins, ties break
//     to the lowest site ID. Losers defer and wait for the winner's
//     announcement, re-opening the election if it never comes.
//   - Announcement: the promoted site broadcasts a TAKEOVER frame
//     (epoch, new ctrl.up address, adopted-state anchor) on every
//     survivor's ctrl.down until the survivor rejoins. Survivors
//     repoint their uplink, pick a rejoin cut by comparing their
//     arrival watermark against the anchor, and send a
//     RECOVERY_REQ on the new uplink; the promoted central re-admits
//     them through Membership.RejoinSince.
//
// Epoch fencing: a survivor records the first announcement it accepts
// per epoch and rejects same-or-older epochs from any other address,
// and the PR 9 coordinator floor rejects control traffic from older
// epochs, so two would-be centrals can never split the cluster.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/status"
	"adaptmirror/internal/vclock"
)

const (
	// defaultTakeoverInterval is the detection ticker period; align it
	// with the expected checkpoint-round cadence.
	defaultTakeoverInterval = 500 * time.Millisecond
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

var errSelfSlot = errors.New("mirrord: promoted site's own mirror slot")

// deadLink fills the promoted site's own slot in its Mirrors slice:
// the slot stays excluded forever (this site IS the central now), so
// the link only ever fails fast.
type deadLink struct{}

func (deadLink) Submit(*event.Event) error { return errSelfSlot }

func (deadLink) SubmitOwned([]*event.Event, event.Ref) error { return errSelfSlot }

// promotedCentral is everything a mirror site owns after winning a
// takeover: the resumed central, its membership, and the downlinks to
// the surviving mirrors.
type promotedCentral struct {
	Central *core.Central
	Member  *core.Membership
	Ann     core.TakeoverAnnouncement
	// ctrl holds the per-slot ctrl.down links for announcements (nil
	// at the promoted site's own slot); links holds every dialed link
	// for Close.
	ctrl     []*lazyUplink
	links    []*lazyUplink
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

// excluded reports whether slot is still voted out of the quorum.
func (pc *promotedCentral) excluded(slot int) bool {
	for _, i := range pc.Member.Failed() {
		if i == slot {
			return true
		}
	}
	return false
}

// takeoverRuntime drives one mirror site's side of the wire-takeover
// protocol.
type takeoverRuntime struct {
	s         *mirrorSite
	peers     []string
	self      int
	standby   bool
	budget    int
	interval  time.Duration
	advertise string

	stats *core.TakeoverStats

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
	done     chan struct{}
	started  bool
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newTakeoverRuntime validates the manifest and builds the runtime
// (not yet ticking; call start).
func newTakeoverRuntime(s *mirrorSite, opts mirrorOptions) (*takeoverRuntime, error) {
	if opts.SiteID < 0 || opts.SiteID >= len(opts.Peers) {
		return nil, fmt.Errorf("takeover: site %d outside the peers manifest (%d entries)", opts.SiteID, len(opts.Peers))
	}
	interval := opts.TakeoverInterval
	if interval <= 0 {
		interval = defaultTakeoverInterval
	}
	advertise := opts.Advertise
	if advertise == "" {
		advertise = opts.Peers[opts.SiteID]
	}
	return &takeoverRuntime{
		s:         s,
		peers:     append([]string(nil), opts.Peers...),
		self:      opts.SiteID,
		standby:   opts.Standby,
		budget:    opts.TakeoverBudget,
		interval:  interval,
		advertise: advertise,
		stats:     core.RegisterTakeoverMetrics(s.Obs, s.site),
		mon:       core.NewStandbyMonitor(s.Mirror.LastRound, opts.TakeoverBudget),
		phase:     roleFollower,
		claims:    make(map[uint64]map[uint8]core.ElectionClaim),
		lastReply: make(map[uint64]time.Time),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

func (t *takeoverRuntime) start() {
	t.mu.Lock()
	t.started = true
	t.mu.Unlock()
	go t.run()
}

func (t *takeoverRuntime) stopAndWait() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.mu.Lock()
	started := t.started
	t.mu.Unlock()
	if started {
		<-t.done
	}
	t.wg.Wait()
}

func (t *takeoverRuntime) run() {
	defer close(t.done)
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
	e := t.s.Mirror.LastRound() >> checkpoint.EpochShift
	if t.seenEpoch > e {
		return t.seenEpoch
	}
	return e
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
	if t.s.Mirror.LastRound() == 0 && t.seenEpoch == 0 {
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
	if t.probeAlive(t.s.uplink.Addr()) {
		t.mon = core.NewStandbyMonitor(t.s.Mirror.LastRound, t.budget)
		t.mu.Unlock()
		return
	}
	t.stats.Fired.Add(1)
	epoch := t.curEpochLocked() + 1
	if t.standby {
		fmt.Printf("mirrord: %s: central dead (missed-round budget %d exhausted) — standby takeover, epoch %d\n",
			t.s.site, t.budget, epoch)
		t.promoteLocked(epoch)
		t.mu.Unlock()
		return
	}
	// No standby designated: open an election for the next epoch.
	t.phase = roleCandidate
	t.firedRound = t.s.Mirror.LastRound()
	t.myClaim = core.ElectionClaim{Epoch: epoch, Site: uint8(t.self), Cut: t.s.Mirror.Backup().Committed()}
	t.nextDecision = time.Now().Add(t.electWindow())
	t.awaitingWinner = false
	claim := t.myClaim
	t.mu.Unlock()
	fmt.Printf("mirrord: %s: central dead — electing for epoch %d (cut %s)\n", t.s.site, epoch, claim.Cut)
	t.broadcastClaim(claim)
}

// candidateTickLocked advances an open election. Called with t.mu held
// and responsible for releasing it.
func (t *takeoverRuntime) candidateTickLocked() {
	// Rounds resuming in the pre-election epoch prove the central was
	// alive after all: abort.
	lr := t.s.Mirror.LastRound()
	if lr > t.firedRound && lr>>checkpoint.EpochShift == t.myClaim.Epoch-1 {
		t.phase = roleFollower
		t.mon = core.NewStandbyMonitor(t.s.Mirror.LastRound, t.budget)
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
		t.myClaim.Cut = t.s.Mirror.Backup().Committed()
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
	fmt.Printf("mirrord: %s: election won — promoting, epoch %d\n", t.s.site, epoch)
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
	d := t.interval
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// promoteLocked converts this mirror site into the epoch's central:
// Promote captures the site's state, a resumed Central adopts it, all
// survivor slots start excluded, and the announcement loop re-admits
// them as they redial. Callers hold t.mu.
func (t *takeoverRuntime) promoteLocked(epoch uint64) {
	s := t.s
	state := s.Mirror.Promote()
	state.Epoch = epoch
	if reg, round, ok := s.Applier.Current(); ok {
		state.Directive = adapt.EncodeRegime(reg)
		state.DirectiveRound = round
	}
	_, params, overwrite := s.Mirror.Regime()
	if params.CheckpointFreq <= 0 {
		params.CheckpointFreq = defaultPromotedChkptFreq
	}

	// Downlinks to every survivor, indexed by ORIGINAL site ID so the
	// SiteID survivors stamp on checkpoint replies keeps addressing
	// the right slot; our own slot gets a dead stub and stays excluded
	// forever.
	mirrors := make([]core.MirrorLink, len(t.peers))
	pc := &promotedCentral{
		ctrl:     make([]*lazyUplink, len(t.peers)),
		rejoinMu: make([]sync.Mutex, len(t.peers)),
	}
	for i, addr := range t.peers {
		if i == t.self {
			mirrors[i] = core.MirrorLink{Data: deadLink{}, Ctrl: deadLink{}}
			continue
		}
		data := &lazyUplink{addr: addr, name: chanData, writeTimeout: rejoinWriteTimeout}
		ctrl := &lazyUplink{addr: addr, name: chanCtrlDown}
		pc.links = append(pc.links, data, ctrl)
		pc.ctrl[i] = ctrl
		mirrors[i] = core.MirrorLink{Data: data, Ctrl: ctrl}
	}
	streams := len(state.Clock)
	if streams == 0 {
		streams = 1
	}
	central := core.NewCentral(core.CentralConfig{
		Streams: streams,
		Params:  params,
		Model:   costmodel.Default,
		CPU:     &costmodel.CPU{},
		Mirrors: mirrors,
		Obs:     s.Obs,
		Tracer:  s.Tracer,
		Resume:  &state,
	})
	if overwrite > 0 {
		central.InstallSelective(overwrite)
	}
	pc.Central = central
	pc.Member = core.NewMembership(central, core.MembershipConfig{MissedRounds: promotedMissBudget})
	for i := range mirrors {
		_ = pc.Member.Exclude(i)
	}
	pc.Ann = core.TakeoverAnnouncement{
		Epoch:  epoch,
		Addr:   t.advertise,
		Anchor: central.Main().LastProcessed(),
	}

	// The site's event-channel server now serves the central role too:
	// sources feed ingress, survivors reply on ctrl.up. The HTTP front
	// keeps serving /init from the adopted main unit untouched, and
	// additionally accepts client updates like any central.
	if ingress, err := s.bus.Open(chanIngress); err == nil {
		ingress.Subscribe(func(e *event.Event) { _ = central.Ingest(e) })
	}
	if ctrlUp, err := s.bus.Open(chanCtrlUp); err == nil {
		ctrlUp.Subscribe(func(e *event.Event) { t.handleCtrlUp(pc, e) })
	}
	s.Front.EnableUpdates(central.Ingest)

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
			if ctrl == nil || !pc.excluded(i) {
				continue
			}
			pending = true
			_ = ctrl.Submit(frame)
		}
		if !pending && !converged {
			fmt.Printf("mirrord: %s: takeover epoch %d converged — every survivor rejoined\n", t.s.site, pc.Ann.Epoch)
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
	if !pc.excluded(slot) {
		return // duplicate request; already rejoined
	}
	if _, err := pc.Member.RejoinSince(slot, cut); err != nil {
		fmt.Printf("mirrord: %s: rejoining survivor %d: %v\n", t.s.site, slot, err)
		return
	}
	fmt.Printf("mirrord: %s: survivor %d rejoined (cut %s)\n", t.s.site, slot, cut)
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
	roundsEpoch := t.s.Mirror.LastRound() >> checkpoint.EpochShift
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
				t.s.site, ann.Epoch, ann.Addr, t.seenAddr)
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
		t.mon = core.NewStandbyMonitor(t.s.Mirror.LastRound, t.budget)
		t.stats.Repoints.Add(1)
		t.s.uplink.Repoint(ann.Addr)
		fmt.Printf("mirrord: %s: takeover epoch %d — repointing uplink to %s\n", t.s.site, ann.Epoch, ann.Addr)
	}
	// Rejoin-cut negotiation (the PR 9 rule): only a site whose
	// arrival watermark is covered by the adopted state may rejoin
	// from its committed cut; anything newer takes the full transfer.
	var cut vclock.VC
	if t.s.Mirror.ArrivalHigh().LessEq(ann.Anchor) {
		cut = t.s.Mirror.Backup().Committed()
	}
	t.mu.Unlock()
	req := &event.Event{Type: event.TypeRecoveryRequest, Seq: uint64(t.self), VT: cut}
	_ = t.s.uplink.Submit(req)
}

// onClaim records a rival's election claim and answers with this
// site's own standing (throttled), so a candidate's decision sees
// every live peer even before that peer's own monitor fires.
func (t *takeoverRuntime) onClaim(c core.ElectionClaim) {
	t.stats.Claims.Add(1)
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
		rc := core.ElectionClaim{Epoch: c.Epoch, Site: uint8(t.self), Cut: t.s.Mirror.Backup().Committed()}
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
	d := t.interval
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	link, err := echo.DialSendTimeout(addr, chanCtrlDown, d)
	if err != nil {
		return
	}
	defer link.Close()
	if link.Submit(&event.Event{Type: event.TypeElect, Seq: c.Epoch, Stream: c.Site, Payload: c.Encode()}) == nil {
		t.stats.Claims.Add(1)
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
		Fired:       t.stats.Fired.Load() > 0,
		Epoch:       t.seenEpoch,
		CentralAddr: t.s.uplink.Addr(),
		Claims:      t.stats.Claims.Load(),
		Repoints:    t.stats.Repoints.Load(),
	}
}
