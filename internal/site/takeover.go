package site

// Wire-level central takeover: the driver of one mirror site's
// core.Takeover node. The node decides; this file feeds it ticks,
// TAKEOVER announcements and ELECT claims, and carries its effects out
// over TCP — the liveness probe, claims to peers' ctrl.down,
// Mirror.Promote, announcements, and a survivor's uplink repoint plus
// the rejoin request loop (MirrorSite.askRejoin). The mutex is held only around Step, so a slow probe or
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
)

const (
	// DefaultTakeoverInterval is the detection ticker period; align it
	// with the expected checkpoint-round cadence.
	DefaultTakeoverInterval = 500 * time.Millisecond
	// defaultPromotedChkptFreq is the checkpoint frequency a promoted
	// central starts with when no directive ever told the mirror the
	// central's parameters.
	defaultPromotedChkptFreq = 50
)

// promotion is what winning a takeover left a mirror site: the central
// it now runs, the adoption that central was built from, and the
// announcement survivors follow.
type promotion struct {
	central *CentralSite
	adopted *Promoted
	ann     core.TakeoverAnnouncement
}

// announce sends the takeover announcement to slot to, or to every
// still-excluded slot (core.TakeoverAll; the site's own slot has a
// closed link, which fails fast). The node asks for the latter every
// tick after promotion, so a survivor excluded at any later time hears
// it again and re-enters the same rejoin path.
func (p *promotion) announce(to int) {
	frame := &event.Event{Type: event.TypeTakeover, Seq: p.ann.Epoch, Payload: p.ann.Encode()}
	member := p.central.Central.Membership()
	for i := 0; i < len(p.central.links)/2; i++ {
		if i == to || to == core.TakeoverAll && !member.Alive(i) {
			_ = p.central.links[2*i+1].Submit(frame)
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

	// mu guards node and is held only around Step.
	mu       sync.Mutex
	node     core.Takeover
	stop     chan struct{}
	stopOnce sync.Once
	// work counts the ticker goroutine and every admitted piece of work.
	work admission
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
	t.work.admit()
	go t.run()
}

// stopAndWait stops the ticker and waits for every admitted piece of
// work; inputs arriving afterwards are dropped.
func (t *takeoverRuntime) stopAndWait() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.work.stop()
}

func (t *takeoverRuntime) run() {
	defer t.work.wg.Done()
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
	if !t.work.admit() {
		return
	}
	defer t.work.wg.Done()
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
			if i != t.self && (e.To == core.TakeoverAll || e.To == i) && t.work.admit() {
				go func() {
					defer t.work.wg.Done()
					t.sendClaim(addr, e.Claim)
				}()
			}
		}
	case core.TakeoverPromote:
		fmt.Printf("mirrord: %s: taking over as central, epoch %d\n", t.s.Name, e.Epoch)
		t.promote(e.Epoch)
	case core.TakeoverAnnounce:
		if p := t.s.promoted.Load(); p != nil {
			p.announce(e.To)
		}
	case core.TakeoverFollow:
		if e.Repoint {
			t.s.Takeover.Repoints.Add(1)
			t.s.Uplink.Repoint(e.Ann.Addr)
			fmt.Printf("mirrord: %s: takeover epoch %d — repointing uplink to %s\n", t.s.Name, e.Ann.Epoch, e.Ann.Addr)
		}
		t.s.askRejoin(RejoinCut(t.s.Site, e.Ann.Anchor))
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

// promote makes this site the epoch's central on its own server and
// front: Mirror.Promote adopts its state with every slot excluded, and
// announcements re-admit survivors, slots indexed by ORIGINAL site ID
// as their checkpoint replies are.
func (t *takeoverRuntime) promote(epoch uint64) {
	s := t.s
	p := &promotion{central: &CentralSite{Bus: s.bus, Front: s.Front, name: s.Name, self: t.self}}
	err := p.central.assemble(t.peers, s.shaping, func(mirrors []core.MirrorLink, detector core.MembershipConfig) (*core.Central, error) {
		p.adopted = s.Promote(epoch, core.CentralConfig{
			Params:  core.Params{CheckpointFreq: defaultPromotedChkptFreq},
			Model:   s.cfg.Model,
			CPU:     s.cfg.CPU,
			Mirrors: mirrors,
			Obs:     s.cfg.Obs,
			Tracer:  s.cfg.Tracer,
		}, detector)
		return p.adopted.Central, nil
	})
	if err != nil {
		fmt.Printf("mirrord: %s: serving as central: %v\n", s.Name, err)
	}
	p.ann = core.TakeoverAnnouncement{Epoch: epoch, Addr: t.advertise, Anchor: p.adopted.Anchor}
	s.promoted.Store(p)
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
