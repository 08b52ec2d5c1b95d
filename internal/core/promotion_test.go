package core

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// promotionRig wires a central with severable links to n mirrors, of
// which mirror 0 is the warm standby. The central and membership slots
// are atomic so mirror uplinks — closures over the rig — always route
// to whoever currently holds the central role, which is exactly the
// re-pointing a deployment does when the standby takes over.
type promotionRig struct {
	central atomic.Pointer[Central]
	member  atomic.Pointer[Membership]
	mirrors []*MirrorSite
	links   []*failableLink // data+ctrl per mirror, interleaved
}

func (r *promotionRig) cen() *Central { return r.central.Load() }

// newPromotionRig builds the rig. wrapUp, when non-nil, may interpose
// on a mirror's control uplink (reply latency injection); the default
// uplink delivers to the current central.
func newPromotionRig(t *testing.T, nMirrors int, wrapUp func(i int, next senderFunc) Sender) *promotionRig {
	t.Helper()
	r := &promotionRig{}
	var coreLinks []MirrorLink
	for i := 0; i < nMirrors; i++ {
		i := i
		data := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleData(e); return nil }}
		ctrl := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleControl(e); return nil }}
		r.links = append(r.links, data, ctrl)
		coreLinks = append(coreLinks, MirrorLink{Data: data, Ctrl: ctrl})
	}
	c := NewCentral(CentralConfig{Streams: 1, Mirrors: coreLinks, Params: Params{CheckpointFreq: manualRounds}})
	r.central.Store(c)
	for i := 0; i < nMirrors; i++ {
		up := senderFunc(func(e *event.Event) error { r.cen().HandleControl(e); return nil })
		var upLink Sender = up
		if wrapUp != nil {
			upLink = wrapUp(i, up)
		}
		r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{
			SiteID:  uint8(i),
			CtrlUp:  upLink,
			Standby: i == 0,
		}))
	}
	r.member.Store(NewMembership(c, MembershipConfig{MissedRounds: 2}))
	t.Cleanup(func() {
		r.cen().Close()
		for _, m := range r.mirrors {
			m.Close()
		}
	})
	return r
}

func (r *promotionRig) feed(t *testing.T, from, n uint64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := r.cen().Ingest(event.NewPosition(event.FlightID(1+i%3), i, 0, 0, 0, 16)); err != nil {
			t.Fatal(err)
		}
	}
}

// commitThrough drives checkpoint rounds until the central and every
// given mirror have committed a cut summing to at least want. Rounds
// are re-triggered while waiting: a CHKPT can race ahead of a round's
// data on a mirror path, and the conservative vote then needs a later
// round to cover everything.
func (r *promotionRig) commitThrough(t *testing.T, want uint64, sites ...*MirrorSite) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.cen().Checkpoint()
		ok := true
		if com := r.cen().Backup().Committed(); com == nil || com.Sum() < want {
			ok = false
		}
		for _, m := range sites {
			if com := m.Backup().Committed(); com == nil || com.Sum() < want {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no committed cut covering %d events (central %v)", want, r.cen().Backup().Committed())
		}
		time.Sleep(time.Millisecond)
	}
}

// promoteStandby crashes the current central and runs the full
// handover: the standby's takeover node declares the failure, Promote
// captures its state, a resumed Central adopts it, and every surviving
// mirror is re-admitted through a fresh membership — from its own
// committed cut when its arrival watermark is covered by the adopted
// state, from a snapshot otherwise.
func (r *promotionRig) promoteStandby(t *testing.T) {
	t.Helper()
	old := r.cen()
	old.Drain()
	for _, l := range r.links {
		l.dead.Store(true)
	}
	old.Close()

	standby := r.mirrors[0]
	node := &Takeover{Site: 0, Peers: len(r.mirrors), Standby: true, Budget: 2}
	var epoch uint64
	for i := 0; i < 4 && epoch == 0; i++ {
		for _, e := range node.Step(TakeoverInput{Kind: TakeoverTick, LastRound: standby.LastRound()}) {
			if e.Kind != TakeoverProbe {
				continue
			}
			// The central is closed: the probe answers dead.
			for _, e := range node.Step(TakeoverInput{Kind: TakeoverProbed, LastRound: standby.LastRound()}) {
				if e.Kind == TakeoverPromote {
					epoch = e.Epoch
				}
			}
		}
	}
	if epoch != old.Epoch()+1 {
		t.Fatalf("standby takeover node promoted in epoch %d, want %d", epoch, old.Epoch()+1)
	}

	state := standby.Promote()
	state.Epoch = epoch

	// Survivors keep their sites and their slots: a reply carries the
	// SiteID its mirror was built with, and membership reads it as the
	// slot. The standby's own slot stays dead and excluded — the
	// promoted central IS that site now.
	coreLinks := make([]MirrorLink, len(r.mirrors))
	var fresh []*failableLink
	for i := range r.mirrors {
		i := i
		data := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleData(e); return nil }}
		ctrl := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleControl(e); return nil }}
		data.dead.Store(i == 0)
		ctrl.dead.Store(i == 0)
		fresh = append(fresh, data, ctrl)
		coreLinks[i] = MirrorLink{Data: data, Ctrl: ctrl}
	}
	nc := NewCentral(CentralConfig{Streams: 1, Mirrors: coreLinks, Resume: &state, Params: Params{CheckpointFreq: manualRounds}})
	r.central.Store(nc)
	r.links = fresh
	standby.Close()

	nm := NewMembership(nc, MembershipConfig{MissedRounds: 2})
	for i := range coreLinks {
		_ = nm.Exclude(i)
	}
	r.member.Store(nm)
	anchor := nc.Main().LastProcessed()
	for i := 1; i < len(r.mirrors); i++ {
		var cut vclock.VC
		if high := r.mirrors[i].ArrivalHigh(); high.LessEq(anchor) {
			cut = r.mirrors[i].Backup().Committed()
		}
		if _, err := nm.RejoinSince(i, cut); err != nil {
			t.Fatalf("rejoining survivor %d: %v", i, err)
		}
	}
	t.Cleanup(nc.Close)
}

// TestPromotionMidRejoin promotes the standby while a survivor is
// mid-rejoin: mirror 2 was excluded and missed committed traffic, and
// the central dies before re-admitting it. The promotion must re-point
// BOTH survivors — the current one and the laggard — and the laggard's
// rejoin negotiates against the adopted journal (its committed cut is
// behind the adopted state), ending with every survivor byte-identical
// to the promoted central and checkpoint rounds landing in epoch 1.
func TestPromotionMidRejoin(t *testing.T) {
	r := newPromotionRig(t, 3, nil)
	r.feed(t, 1, 60)
	r.commitThrough(t, 60, r.mirrors...)

	// Mirror 2 falls off, misses committed traffic, and is voted out by
	// the old central's ticks.
	r.links[4].dead.Store(true)
	r.links[5].dead.Store(true)
	r.feed(t, 1000, 40)
	deadline := time.Now().Add(5 * time.Second)
	for len(r.member.Load().Failed()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("old central never excluded the dead mirror")
		}
		r.cen().Tick()
		time.Sleep(time.Millisecond)
	}
	r.commitThrough(t, 100, r.mirrors[0], r.mirrors[1])

	// The central dies before the laggard's rejoin completes; the
	// promotion has to finish the job.
	r.promoteStandby(t)
	nc := r.cen()
	if nc.Epoch() != 1 {
		t.Fatalf("promoted central epoch = %d, want 1", nc.Epoch())
	}
	stats := nc.RejoinStats()
	if stats.Deltas+stats.Snapshots != 2 {
		t.Fatalf("RejoinStats = %+v, want 2 rejoin transfers", stats)
	}

	// Fresh ingest lands under the new epoch and commits.
	r.feed(t, 2000, 20)
	r.commitThrough(t, 120, r.mirrors[1], r.mirrors[2])
	nc.Drain()

	want := nc.Main().LastProcessed()
	for i := 1; i < len(r.mirrors); i++ {
		waitProgress(t, r.mirrors[i], want)
	}
	central := nc.Main().Engine().State().Snapshot()
	for i := 1; i < len(r.mirrors); i++ {
		if got := r.mirrors[i].Main().Engine().State().Snapshot(); !bytes.Equal(got, central) {
			t.Fatalf("survivor %d diverged after promotion (%d vs %d bytes)", i, len(got), len(central))
		}
	}
	base := checkpoint.EpochBase(nc.Epoch())
	for i := 1; i < len(r.mirrors); i++ {
		if lr := r.mirrors[i].LastRound(); lr <= base {
			t.Fatalf("survivor %d round watermark %d not above epoch base %d", i, lr, base)
		}
	}
	if err := nc.Backup().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionDuringInFlightRound promotes the standby while a
// checkpoint round is open: the survivor's CHKPT_REP is still in
// flight when the central dies, and is only released after the role
// has moved. The resumed coordinator's floor must reject the old-epoch
// straggler — no commit, no double-count — and the next round under
// epoch 1 commits normally with everyone converged.
func TestPromotionDuringInFlightRound(t *testing.T) {
	hold := &holdableSender{}
	r := newPromotionRig(t, 2, func(i int, next senderFunc) Sender {
		if i != 1 {
			return next
		}
		hold.next = next
		return hold
	})
	r.feed(t, 1, 60)
	r.commitThrough(t, 60, r.mirrors...)

	// Uncommitted traffic for the round to propose, then hold the
	// survivor's reply so the round stays open across the crash.
	r.feed(t, 5000, 20)
	r.cen().Drain()
	hold.hold()
	r.cen().Checkpoint()

	r.promoteStandby(t)
	nc := r.cen()
	if nc.Epoch() != 1 {
		t.Fatalf("promoted central epoch = %d, want 1", nc.Epoch())
	}

	// The straggler reply lands on the NEW coordinator (the survivor's
	// uplink was re-pointed). Its round is below the resumed floor:
	// it must change nothing.
	roundsBefore, commitsBefore := nc.coord.Stats()
	hold.release()
	if rounds, commits := nc.coord.Stats(); rounds != roundsBefore || commits != commitsBefore {
		t.Fatalf("old-epoch straggler moved the resumed coordinator: rounds %d->%d commits %d->%d",
			roundsBefore, rounds, commitsBefore, commits)
	}

	// The new epoch ingests and commits; the adopted backup carried the
	// pre-crash uncommitted events, so the cut covers them too.
	r.feed(t, 7000, 20)
	r.commitThrough(t, 100, r.mirrors[1])
	nc.Drain()

	waitProgress(t, r.mirrors[1], nc.Main().LastProcessed())
	central := nc.Main().Engine().State().Snapshot()
	if got := r.mirrors[1].Main().Engine().State().Snapshot(); !bytes.Equal(got, central) {
		t.Fatalf("survivor diverged after mid-round promotion (%d vs %d bytes)", len(got), len(central))
	}
	if lr := r.mirrors[1].LastRound(); lr <= checkpoint.EpochBase(1) {
		t.Fatalf("survivor round watermark %d not above epoch base %d", lr, checkpoint.EpochBase(1))
	}
	if err := nc.Backup().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
