package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// failableLink wraps a sender with a kill switch and a hold: a held
// link queues deliveries in order until it is released.
type failableLink struct {
	dead atomic.Bool
	fn   senderFunc

	mu      sync.Mutex
	holding bool
	queue   []*event.Event
}

func (l *failableLink) Submit(e *event.Event) error {
	if l.dead.Load() {
		return ErrUnitClosed
	}
	l.mu.Lock()
	if l.holding {
		l.queue = append(l.queue, e)
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	return l.fn(e)
}

func (l *failableLink) SubmitOwned(es []*event.Event, ref event.Ref) error {
	return senderFunc(l.Submit).SubmitOwned(es, ref)
}

// release delivers what the hold queued, in order, and stops holding
// once the queue is empty; deliveries it causes queue behind it.
func (l *failableLink) release() {
	for {
		l.mu.Lock()
		if len(l.queue) == 0 {
			l.holding = false
			l.mu.Unlock()
			return
		}
		e := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()
		_ = l.fn(e)
	}
}

// manualRounds is a checkpoint frequency no test reaches: rounds run
// only when the test calls Checkpoint. Rigs set it in CentralConfig:
// the sending task reads its parameters before it waits for a batch,
// so a SetParams issued after construction misses the first one, whose
// default frequency can start a round of its own.
const manualRounds = 1 << 30

// membershipRig wires a central with two mirrors whose links can be
// severed.
type membershipRig struct {
	central *Central
	mirrors []*MirrorSite
	links   []*failableLink // data+ctrl per mirror, interleaved
	member  *Membership
	replies [2]atomic.Int64 // control events each mirror handed the central
}

func newMembershipRig(t *testing.T, missedRounds int) *membershipRig {
	t.Helper()
	r := &membershipRig{}
	var coreLinks []MirrorLink
	for i := 0; i < 2; i++ {
		i := i
		data := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleData(e); return nil }}
		ctrl := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleControl(e); return nil }}
		r.links = append(r.links, data, ctrl)
		coreLinks = append(coreLinks, MirrorLink{Data: data, Ctrl: ctrl})
	}
	r.central = NewCentral(CentralConfig{Streams: 1, Mirrors: coreLinks, Params: Params{CheckpointFreq: manualRounds}})
	for i := 0; i < 2; i++ {
		r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{
			SiteID: uint8(i),
			CtrlUp: senderFunc(func(e *event.Event) error {
				r.central.HandleControl(e)
				r.replies[i].Add(1)
				return nil
			}),
		}))
	}
	r.member = NewMembership(r.central, MembershipConfig{MissedRounds: missedRounds})
	t.Cleanup(func() {
		r.central.Close()
		for _, m := range r.mirrors {
			m.Close()
		}
	})
	return r
}

func (r *membershipRig) kill(mirror int) {
	r.links[2*mirror].dead.Store(true)
	r.links[2*mirror+1].dead.Store(true)
}

func (r *membershipRig) revive(mirror int) {
	r.links[2*mirror].dead.Store(false)
	r.links[2*mirror+1].dead.Store(false)
}

func (r *membershipRig) hold(mirror int) {
	for _, l := range r.links[2*mirror : 2*mirror+2] {
		l.mu.Lock()
		l.holding = true
		l.mu.Unlock()
	}
}

func (r *membershipRig) release(mirror int) {
	r.links[2*mirror].release()
	r.links[2*mirror+1].release()
}

func (r *membershipRig) feed(t *testing.T, from, n uint64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := r.central.Ingest(event.NewPosition(event.FlightID(1+i%3), i, 0, 0, 0, 16)); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *membershipRig) settle() {
	// Wait until the sending task has taken every ingested event (none
	// left in the ingest channel or the ready queue, all forwarded), then
	// give it a moment to back them up and fan them out.
	c := r.central
	deadline := time.Now().Add(5 * time.Second)
	for (len(c.in) > 0 || c.ready.Len() > 0 || c.forwarded.Load() < c.received.Load()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
}

func TestHealthyClusterStaysAdmitted(t *testing.T) {
	r := newMembershipRig(t, 3)
	r.central.SetParams(false, 1, 10)
	r.feed(t, 1, 200)
	r.settle()
	for i := 0; i < 10; i++ {
		r.central.Checkpoint()
	}
	if got := r.member.Live(); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}
	if failed := r.member.Failed(); len(failed) != 0 {
		t.Fatalf("Failed = %v, want none", failed)
	}
}

func TestDeadMirrorExcludedAndCommitsResume(t *testing.T) {
	r := newMembershipRig(t, 3)
	r.feed(t, 1, 100)
	r.settle()

	r.kill(1)
	// Rounds run; mirror 1 never replies. After MissedRounds, it is
	// excluded and rounds complete with the remaining quorum.
	for i := 0; i < 5; i++ {
		r.central.Checkpoint()
		time.Sleep(2 * time.Millisecond)
	}
	if failed := r.member.Failed(); len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", failed)
	}
	if r.member.Live() != 1 {
		t.Fatalf("Live = %d, want 1", r.member.Live())
	}
	// Post-exclusion rounds commit with the healthy quorum, so new
	// traffic keeps being trimmed instead of accumulating forever.
	r.feed(t, 5000, 50)
	r.settle()
	r.central.Checkpoint()
	time.Sleep(2 * time.Millisecond)
	if after := r.central.Backup().Len(); after >= 50 {
		t.Fatalf("backup stuck at %d after exclusion; commits did not resume", after)
	}
}

func TestExcludedMirrorReceivesNoTraffic(t *testing.T) {
	r := newMembershipRig(t, 2)
	r.feed(t, 1, 50)
	r.settle()
	r.kill(1)
	for i := 0; i < 4; i++ {
		r.central.Checkpoint()
		time.Sleep(time.Millisecond)
	}
	if len(r.member.Failed()) != 1 {
		t.Fatalf("mirror 1 not excluded: %v", r.member.Failed())
	}
	// Revive the link but do NOT rejoin: excluded mirrors get nothing.
	r.revive(1)
	before := r.mirrors[1].Received()
	r.feed(t, 1000, 50)
	// The live mirror keeps receiving; its link sender delivers on its
	// own goroutine, so wait for the events rather than a fixed pause.
	waitFor(t, "the live mirror to receive the new events", func() bool { return r.mirrors[0].Received() >= 100 })
	r.settle()
	if got := r.mirrors[1].Received(); got != before {
		t.Fatalf("excluded mirror received %d new events", got-before)
	}
}

func TestRejoinRestoresReplicationAndQuorum(t *testing.T) {
	r := newMembershipRig(t, 2)
	r.feed(t, 1, 60)
	r.settle()
	r.kill(1)
	for i := 0; i < 4; i++ {
		r.central.Checkpoint()
		time.Sleep(time.Millisecond)
	}
	if len(r.member.Failed()) != 1 {
		t.Fatal("mirror 1 not excluded")
	}

	// The mirror comes back: replace it with a fresh site (its state
	// was lost) and rejoin.
	r.mirrors[1].Close()
	r.mirrors[1] = NewMirrorSite(MirrorSiteConfig{
		SiteID: 1,
		CtrlUp: senderFunc(func(e *event.Event) error { r.central.HandleControl(e); return nil }),
	})
	r.revive(1)
	// After the healthy quorum committed, the backup may be fully
	// trimmed — the state snapshot alone then carries recovery, and
	// replayed can legitimately be zero.
	replayed, err := r.member.Rejoin(1)
	if err != nil {
		t.Fatal(err)
	}
	if replayed > 0 && r.mirrors[1].Received() == 0 {
		t.Fatal("replayed events never reached the rejoined mirror")
	}
	if r.member.Live() != 2 {
		t.Fatalf("Live = %d after rejoin, want 2", r.member.Live())
	}

	// New traffic reaches the rejoined mirror again.
	r.feed(t, 2000, 30)
	r.settle()
	deadline := time.Now().Add(5 * time.Second)
	for r.mirrors[1].Processed() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.mirrors[1].Processed() == 0 {
		t.Fatal("rejoined mirror processed nothing")
	}
}

func TestRejoinValidation(t *testing.T) {
	r := newMembershipRig(t, 2)
	if _, err := r.member.Rejoin(0); err == nil {
		t.Fatal("rejoining a live mirror must fail")
	}
	if _, err := r.member.Rejoin(9); err == nil {
		t.Fatal("rejoining an unknown mirror must fail")
	}
}

// TestConcurrentRejoinTransfersOnce: two rejoin calls racing for one
// excluded mirror transfer once and re-admit it once. A second
// transfer would count the mirror into the quorum twice, leaving a
// phantom participant no round can hear from and no detector can
// exclude, so commits would stall for good.
func TestConcurrentRejoinTransfersOnce(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			r := newMembershipRig(t, 2)
			r.feed(t, 1, 30)
			r.settle()
			if err := r.member.Exclude(1); err != nil {
				t.Fatal(err)
			}
			r.mirrors[1].Close()
			r.mirrors[1] = NewMirrorSite(MirrorSiteConfig{
				SiteID: 1,
				CtrlUp: senderFunc(func(e *event.Event) error { r.central.HandleControl(e); return nil }),
			})

			start := make(chan struct{})
			errs := make(chan error, 2)
			for range 2 {
				go func() {
					<-start
					_, err := r.member.RejoinSince(1, nil)
					errs <- err
				}()
			}
			close(start)
			var admitted int
			for range 2 {
				switch err := <-errs; {
				case err == nil:
					admitted++
				case !errors.Is(err, ErrNotExcluded):
					t.Fatal(err)
				}
			}
			st := r.central.RejoinStats()
			if admitted != 1 || st.Snapshots+st.Deltas != 1 {
				t.Fatalf("%d calls rejoined, %d transfers; want 1 and 1", admitted, st.Snapshots+st.Deltas)
			}
			if live, failed := r.member.Live(), r.member.Failed(); live != 2 || len(failed) != 0 {
				t.Fatalf("Live = %d, Failed = %v after the rejoin; want 2 and none", live, failed)
			}

			// The quorum is the two mirrors and the central: the next
			// round commits.
			commits := r.central.Stats().ChkptCommits
			r.feed(t, 100, 10)
			r.settle()
			r.central.Checkpoint()
			waitFor(t, "a commit after the rejoin", func() bool { return r.central.Stats().ChkptCommits > commits })
		})
	}
}

func TestMembershipCallbacks(t *testing.T) {
	var failures, rejoins atomic.Int64
	r := &membershipRig{}
	var coreLinks []MirrorLink
	data := &failableLink{fn: func(e *event.Event) error { r.mirrors[0].HandleData(e); return nil }}
	ctrl := &failableLink{fn: func(e *event.Event) error { r.mirrors[0].HandleControl(e); return nil }}
	r.links = append(r.links, data, ctrl)
	coreLinks = append(coreLinks, MirrorLink{Data: data, Ctrl: ctrl})
	r.central = NewCentral(CentralConfig{Streams: 1, Mirrors: coreLinks, Params: Params{CheckpointFreq: manualRounds}})
	r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{
		SiteID: 0,
		CtrlUp: senderFunc(func(e *event.Event) error { r.central.HandleControl(e); return nil }),
	}))
	r.member = NewMembership(r.central, MembershipConfig{
		MissedRounds: 1,
		OnFailure:    func(int) { failures.Add(1) },
		OnRejoin:     func(int) { rejoins.Add(1) },
	})
	defer r.central.Close()
	defer r.mirrors[0].Close()

	r.feed(t, 1, 20)
	r.settle()
	r.kill(0)
	for i := 0; i < 3; i++ {
		r.central.Checkpoint()
		time.Sleep(time.Millisecond)
	}
	if failures.Load() != 1 {
		t.Fatalf("failure callbacks = %d, want 1", failures.Load())
	}
	r.revive(0)
	if _, err := r.member.Rejoin(0); err != nil {
		t.Fatal(err)
	}
	if rejoins.Load() != 1 {
		t.Fatalf("rejoin callbacks = %d, want 1", rejoins.Load())
	}
}

// deferLimit is checkpoint's deferral limit: an open round defers this
// many automatic triggers and the next one abandons it.
const deferLimit = 8

// TestSilencedMirrorExcludedByAutomaticTriggers: automatic rounds are
// paced by commits, yet a mirror whose control link is silenced is
// still counted out by started rounds — each open round defers
// deferLimit triggers and the next abandons it — so the default budget
// of 8 missed rounds excludes it within (8+1)×(deferLimit+1) triggers.
func TestSilencedMirrorExcludedByAutomaticTriggers(t *testing.T) {
	r := newMembershipRig(t, 0)
	// A backlog no round can commit once mirror 1 is silenced, so every
	// trigger below finds events to propose.
	r.feed(t, 1, 10)
	r.settle()
	r.links[3].dead.Store(true) // mirror 1's control link
	// One trigger per forwarded event; the sending task reads the new
	// frequency from its next batch on, so flush one batch through first.
	r.central.SetParams(false, 1, 1)
	r.feed(t, 50, 1)
	r.settle()

	const budget = 8 // MembershipConfig default
	r.feed(t, 100, (budget+1)*(deferLimit+1))
	r.central.Drain()
	waitFor(t, "the silenced mirror's exclusion", func() bool { return len(r.member.Failed()) > 0 })
	if failed := r.member.Failed(); len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", failed)
	}
}

// TestExcludedVoterRoundWaitsForLiveMirror: excluding a mirror that has
// already voted must not complete the round over a strict subset of
// the live voters. Mirror 0's links are held, so it has processed
// nothing; the central and mirror 1 vote <10>; excluding mirror 1 then
// leaves the round waiting for mirror 0, which commits it once its
// held events and CHKPT arrive.
func TestExcludedVoterRoundWaitsForLiveMirror(t *testing.T) {
	r := newMembershipRig(t, 8)
	r.hold(0)
	r.feed(t, 1, 10)
	r.settle()
	waitFor(t, "mirror 1 to process the stream", func() bool { return r.mirrors[1].Processed() == 10 })

	// The central votes inside Checkpoint; mirror 1's CHKPT_REP comes
	// back from its main unit's goroutine.
	if !r.central.Checkpoint() {
		t.Fatal("no round started over a backed-up stream")
	}
	waitFor(t, "mirror 1's vote at the central", func() bool { return r.replies[1].Load() > 0 })
	if err := r.member.Exclude(1); err != nil {
		t.Fatal(err)
	}
	if got := r.mirrors[0].Processed(); got != 0 {
		t.Fatalf("held mirror 0 processed %d events", got)
	}
	if c := r.central.Stats().ChkptCommits; c != 0 {
		t.Fatalf("round committed %v without mirror 0's vote", r.central.CommittedCut())
	}

	r.release(0)
	waitFor(t, "the round to commit on mirror 0's vote", func() bool { return r.central.Stats().ChkptCommits == 1 })
	if cut, lp := r.central.CommittedCut(), r.mirrors[0].Main().LastProcessed(); !cut.LessEq(lp) {
		t.Fatalf("commit %v beyond mirror 0's progress %v", cut, lp)
	}
}

// TestExcludedMirrorSampleIgnored: a late CHKPT_REP from an excluded
// mirror must not feed its sample to adaptation, which evicted the
// site's row when it was excluded.
func TestExcludedMirrorSampleIgnored(t *testing.T) {
	var (
		mu    sync.Mutex
		sites []int
	)
	discard := senderFunc(func(*event.Event) error { return nil })
	c := NewCentral(CentralConfig{
		Streams: 1,
		Mirrors: []MirrorLink{{Data: discard, Ctrl: discard}, {Data: discard, Ctrl: discard}},
		Params:  Params{CheckpointFreq: manualRounds},
		OnMirrorSample: func(site int, _ Sample) {
			mu.Lock()
			sites = append(sites, site)
			mu.Unlock()
		},
	})
	defer c.Close()
	if err := NewMembership(c, MembershipConfig{}).Exclude(1); err != nil {
		t.Fatal(err)
	}
	for _, site := range []uint8{1, 0} {
		rep := event.NewControl(event.TypeChkptReply, vclock.VC{1})
		rep.Stream = site
		rep.Payload = EncodeSample(Sample{Ready: 7})
		c.HandleControl(rep)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(sites) != "[0]" {
		t.Fatalf("samples reached adaptation from sites %v, want [0]", sites)
	}
}
