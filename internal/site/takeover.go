package site

// Wire-level central takeover: the driver of one mirror site's
// core.Takeover node. The node decides; this file feeds it ticks,
// TAKEOVER announcements and ELECT claims, and carries its effects out
// over TCP — the liveness probe, claims to peers' ctrl.down,
// Mirror.Promote, announcements, and a survivor's uplink repoint plus
// RECOVERY_REQ. The mutex is held only around Step, so a slow probe or
// dial never blocks /cluster/status or frame handling. DESIGN.md,
// "Central failover", specifies the protocol.

import (
	"fmt"
	"net"
	"sync"
	"time"

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
	// budget in consecutive checkpoint rounds. Automatic rounds are
	// paced by commits, but an unanswered round is still abandoned every
	// 9 triggers, and triggers count events, not time. Right after a
	// takeover the first broadcast to a re-admitted survivor dials its
	// control link; under the race detector that blocked the control
	// task for ~8 ms while ~55 triggers queued, which then ran as six
	// back-to-back rounds before the survivor (its first CHKPT delivered
	// 38 ms after sending) could answer any. With the in-process default
	// (8) the healthy survivor was excluded in about half of the
	// TestWireTakeover runs, and the fan-out's liveness gate then
	// silently discards its batches. The wire detector only needs to
	// unstick commits when a survivor really dies, so a generous budget
	// costs nothing until misses are counted in time rather than rounds.
	promotedMissBudget = 256
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

// announce sends the takeover announcement to slot to, or to every
// still-excluded survivor (core.TakeoverAll). The node asks for the
// latter every tick after promotion, so a survivor excluded at any
// later time hears it again and re-enters the same rejoin path.
func (pc *promotedCentral) announce(to int) {
	frame := &event.Event{Type: event.TypeTakeover, Seq: pc.Ann.Epoch, Payload: pc.Ann.Encode()}
	for i, ctrl := range pc.ctrl {
		if ctrl != nil && (i == to || to == core.TakeoverAll && !pc.Member.Alive(i)) {
			_ = ctrl.Submit(frame)
		}
	}
}

// takeoverRuntime drives one mirror site's takeover node.
type takeoverRuntime struct {
	s         *MirrorSite
	peers     []string
	self      int
	interval  time.Duration
	advertise string

	// mu guards node and stopped, and is held only around Step.
	mu      sync.Mutex
	node    core.Takeover
	stopped bool
	stop    chan struct{}
	// wg counts the ticker goroutine and every admitted piece of work.
	wg sync.WaitGroup
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
		interval:  interval,
		advertise: advertise,
		node:      core.Takeover{Site: self, Peers: len(opts.Peers), Standby: opts.Config.Standby, Budget: opts.TakeoverBudget},
		stop:      make(chan struct{}),
	}, nil
}

func (t *takeoverRuntime) start() {
	t.wg.Add(1)
	go t.run()
}

// stopAndWait stops the ticker and waits for every admitted piece of
// work; inputs arriving afterwards are dropped.
func (t *takeoverRuntime) stopAndWait() {
	t.mu.Lock()
	if !t.stopped {
		t.stopped = true
		close(t.stop)
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// admit registers one piece of work unless the runtime has stopped; an
// admitted caller calls t.wg.Done when finished.
func (t *takeoverRuntime) admit() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return false
	}
	t.wg.Add(1)
	return true
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
			t.step(core.TakeoverInput{Kind: core.TakeoverTick})
		}
	}
}

// step feeds one input, completed with the site's view, to the node
// and carries out the resulting effects after releasing the lock.
func (t *takeoverRuntime) step(in core.TakeoverInput) {
	if !t.admit() {
		return
	}
	defer t.wg.Done()
	in.LastRound, in.Cut = t.s.Site.LastRound(), t.s.Site.Backup().Committed()
	t.mu.Lock()
	effects := t.node.Step(in)
	t.mu.Unlock()
	for _, e := range effects {
		t.do(e)
	}
}

// do carries out one effect.
func (t *takeoverRuntime) do(e core.TakeoverEffect) {
	switch e.Kind {
	case core.TakeoverProbe:
		alive := t.probeAlive(t.s.Uplink.Addr())
		if !alive {
			t.s.Takeover.Fired.Add(1)
			fmt.Printf("mirrord: %s: central dead (missed-round budget exhausted, probe refused)\n", t.s.Name)
		}
		t.step(core.TakeoverInput{Kind: core.TakeoverProbed, Alive: alive})
	case core.TakeoverSendClaim:
		if e.To == core.TakeoverAll {
			fmt.Printf("mirrord: %s: electing for epoch %d (cut %s)\n", t.s.Name, e.Claim.Epoch, e.Claim.Cut)
		}
		for i, addr := range t.peers {
			if i != t.self && (e.To == core.TakeoverAll || e.To == i) {
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					t.sendClaim(addr, e.Claim)
				}()
			}
		}
	case core.TakeoverPromote:
		fmt.Printf("mirrord: %s: taking over as central, epoch %d\n", t.s.Name, e.Epoch)
		t.promote(e.Epoch)
	case core.TakeoverAnnounce:
		if pc := t.s.promoted.Load(); pc != nil {
			pc.announce(e.To)
		}
	case core.TakeoverFollow:
		if e.Repoint {
			t.s.Takeover.Repoints.Add(1)
			t.s.Uplink.Repoint(e.Ann.Addr)
			fmt.Printf("mirrord: %s: takeover epoch %d — repointing uplink to %s\n", t.s.Name, e.Ann.Epoch, e.Ann.Addr)
		}
		_ = t.s.Uplink.Submit(&event.Event{Type: event.TypeRecoveryRequest, Seq: uint64(t.self), VT: RejoinCut(t.s.Site, e.Ann.Anchor)})
	}
}

// probeAlive reports whether addr still accepts TCP connections. The
// timeout is floored at a full second regardless of how aggressive the
// detection interval is: a killed central refuses instantly, so a
// generous timeout costs nothing there, while a short one risks a
// false death verdict (and a spurious election) against a live but
// momentarily slow peer.
func (t *takeoverRuntime) probeAlive(addr string) bool {
	conn, err := net.DialTimeout("tcp", addr, min(max(t.interval, time.Second), 5*time.Second))
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// promote converts this mirror site into the epoch's central:
// Mirror.Promote adopts the site's state with every survivor slot
// excluded, and announcements re-admit them as they redial.
func (t *takeoverRuntime) promote(epoch uint64) {
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
	s.promoted.Store(pc)
}

// handleCtrlUp routes the promoted central's ctrl.up traffic:
// checkpoint replies to the coordinator, recovery requests to rejoin
// service (on their own goroutine — a state transfer must not block
// the control channel's read loop).
func (t *takeoverRuntime) handleCtrlUp(pc *promotedCentral, e *event.Event) {
	if e.Type != event.TypeRecoveryRequest {
		pc.Central.HandleControl(e)
		return
	}
	if !t.admit() {
		return
	}
	slot, cut := int(e.Seq), e.VT.Clone()
	go func() {
		defer t.wg.Done()
		t.serveRejoin(pc, slot, cut)
	}()
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
			t.step(core.TakeoverInput{Kind: core.TakeoverAnnounced, Ann: ann})
		}
		return true
	case event.TypeElect:
		if c, err := core.DecodeElectionClaim(e.Payload); err == nil {
			t.s.Takeover.Claims.Add(1)
			t.step(core.TakeoverInput{Kind: core.TakeoverClaimed, Claim: c})
		}
		return true
	}
	return false
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
	info := t.node.Info()
	t.mu.Unlock()
	return status.FromTakeover(info, t.s.Takeover, t.s.Uplink.Addr())
}
