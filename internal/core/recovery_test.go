package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// waitProgress polls until the site's main unit has processed at least
// through want.
func waitProgress(t *testing.T, m *MirrorSite, want vclock.VC) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !want.LessEq(m.Main().LastProcessed()) {
		if time.Now().After(deadline) {
			t.Fatalf("mirror stuck at %v, want at least %v", m.Main().LastProcessed(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// excludeMirror kills mirror i's links and drives checkpoint rounds
// until the failure detector removes it.
func excludeMirror(t *testing.T, r *membershipRig, i int) {
	t.Helper()
	r.kill(i)
	for attempt := 0; len(r.member.Failed()) == 0 && attempt < 10; attempt++ {
		r.central.Checkpoint()
		time.Sleep(time.Millisecond)
	}
	if failed := r.member.Failed(); len(failed) != 1 || failed[0] != i {
		t.Fatalf("Failed = %v, want [%d]", failed, i)
	}
}

// TestRejoinMidStorm re-admits a crash-restarted mirror while the feed
// is still running full tilt: the rejoin transfer must serialize
// against the live fan-out so the recovered replica sees every event
// exactly once — snapshot, replay, or post-rejoin fan-out — and ends
// byte-identical to the central state.
func TestRejoinMidStorm(t *testing.T) {
	r := newMembershipRig(t, 2)
	r.feed(t, 1, 80)
	r.settle()
	excludeMirror(t, r, 1)

	// Crash-restart: the old site's volatile state is gone.
	r.mirrors[1].Close()
	r.mirrors[1] = NewMirrorSite(MirrorSiteConfig{
		SiteID: 1,
		CtrlUp: senderFunc(func(e *event.Event) error { r.central.HandleControl(e); return nil }),
	})
	r.revive(1)

	// Storm: feed concurrently with the rejoin so recovery overlaps
	// live traffic.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(10000); i < 10400; i++ {
			if err := r.central.Ingest(event.NewPosition(event.FlightID(1+i%5), i, float64(i), 0, 0, 24)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := r.member.Rejoin(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	r.central.Drain()
	want := r.central.Main().LastProcessed()
	for i := range r.mirrors {
		waitProgress(t, r.mirrors[i], want)
	}
	central := r.central.Main().Engine().State().Snapshot()
	for i, m := range r.mirrors {
		if got := m.Main().Engine().State().Snapshot(); !bytes.Equal(got, central) {
			t.Fatalf("mirror %d state diverged after mid-storm rejoin (%d vs %d bytes)",
				i, len(got), len(central))
		}
	}
}

// holdableSender queues control events until released (simulates reply
// latency so a checkpoint round can be held open).
type holdableSender struct {
	mu      sync.Mutex
	holding bool
	held    []*event.Event
	next    senderFunc
}

func (h *holdableSender) Submit(e *event.Event) error {
	h.mu.Lock()
	if h.holding {
		h.held = append(h.held, e)
		h.mu.Unlock()
		return nil
	}
	h.mu.Unlock()
	return h.next(e)
}

func (h *holdableSender) hold() {
	h.mu.Lock()
	h.holding = true
	h.mu.Unlock()
}

func (h *holdableSender) release() {
	h.mu.Lock()
	held := h.held
	h.held = nil
	h.holding = false
	h.mu.Unlock()
	for _, e := range held {
		_ = h.next(e)
	}
}

// TestRejoinDuringInFlightRound re-admits a mirror while a checkpoint
// round is still open (a live participant's reply is in flight). The
// quorum growth must defer to the next round — the rejoined site never
// saw the open round's CHKPT — so the open round still commits with
// its original quorum and the next round includes everyone. No
// deadlock, no lost round.
func TestRejoinDuringInFlightRound(t *testing.T) {
	r := &membershipRig{}
	hold := &holdableSender{}
	var coreLinks []MirrorLink
	for i := 0; i < 2; i++ {
		i := i
		data := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleData(e); return nil }}
		ctrl := &failableLink{fn: func(e *event.Event) error { r.mirrors[i].HandleControl(e); return nil }}
		r.links = append(r.links, data, ctrl)
		coreLinks = append(coreLinks, MirrorLink{Data: data, Ctrl: ctrl})
	}
	r.central = NewCentral(CentralConfig{Streams: 1, Mirrors: coreLinks, Params: Params{CheckpointFreq: manualRounds}})
	hold.next = func(e *event.Event) error { r.central.HandleControl(e); return nil }
	// Mirror 0's replies pass through the holdable sender; mirror 1's
	// go direct.
	r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{SiteID: 0, CtrlUp: hold}))
	r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{
		SiteID: 1,
		CtrlUp: senderFunc(func(e *event.Event) error { r.central.HandleControl(e); return nil }),
	}))
	r.member = NewMembership(r.central, MembershipConfig{MissedRounds: 2})
	defer func() {
		r.central.Close()
		for _, m := range r.mirrors {
			m.Close()
		}
	}()

	r.feed(t, 1, 60)
	r.settle()
	excludeMirror(t, r, 1)
	r.revive(1)

	// Fresh uncommitted traffic so the round has something to propose
	// (the exclusion rounds trimmed the backup clean).
	r.feed(t, 5000, 20)
	r.settle()

	// Open a round and keep it open: mirror 0's reply is held, so the
	// round waits on it (central's own vote arrived synchronously).
	hold.hold()
	if !r.central.Checkpoint() {
		t.Fatal("round did not start")
	}
	_, commitsBefore := r.central.coord.Stats()

	// Rejoin mid-round. This must not deadlock and must not complete
	// the open round (the rejoined site is next-round quorum).
	done := make(chan error, 1)
	go func() {
		_, err := r.member.Rejoin(1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Rejoin deadlocked against the in-flight round")
	}
	if _, commits := r.central.coord.Stats(); commits != commitsBefore {
		t.Fatalf("open round committed during rejoin: %d -> %d", commitsBefore, commits)
	}

	// Release the held reply: the open round commits with its original
	// quorum.
	hold.release()
	if _, commits := r.central.coord.Stats(); commits != commitsBefore+1 {
		t.Fatalf("open round did not commit after release: %d -> %d", commitsBefore, commits)
	}

	// The next round includes the rejoined mirror and commits too.
	r.feed(t, 7000, 20)
	r.settle()
	waitProgress(t, r.mirrors[1], r.central.Backup().Last())
	if !r.central.Checkpoint() {
		t.Fatal("post-rejoin round did not start")
	}
	if _, commits := r.central.coord.Stats(); commits != commitsBefore+2 {
		t.Fatalf("post-rejoin round did not commit: %d -> %d", commitsBefore, commits)
	}
	if err := r.central.Backup().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleRecoveryIdempotent pushes two full recovery transfers at
// the same mirror: the second snapshot reinstalls (not re-applies) and
// the arrival watermark discards the overlapping replay, so nothing is
// double-counted and the replica still matches the central state
// byte-for-byte.
func TestDoubleRecoveryIdempotent(t *testing.T) {
	r := newRigStandalone(1)
	defer r.close()
	r.central.SetParams(false, 1, 1<<30)
	for i := uint64(1); i <= 50; i++ {
		if err := r.central.Ingest(event.NewPosition(event.FlightID(1+i%4), i, float64(i), 1, 2, 24)); err != nil {
			t.Fatal(err)
		}
	}
	r.drainAll()
	r.central.Checkpoint() // commit + trim part of the history

	// A fresh external site, recovered twice over the same link.
	ext := NewMirrorSite(MirrorSiteConfig{})
	defer ext.Close()
	link := senderFunc(func(e *event.Event) error { ext.HandleData(e); return nil })

	if _, err := r.central.RecoverMirror(link); err != nil {
		t.Fatal(err)
	}
	want := r.central.Main().LastProcessed()
	waitProgress(t, ext, want)
	first := ext.Main().Engine().State().Snapshot()
	processedOnce := ext.Processed()

	if _, err := r.central.RecoverMirror(link); err != nil {
		t.Fatal(err)
	}
	waitProgress(t, ext, want)
	ext.Drain()
	second := ext.Main().Engine().State().Snapshot()

	central := r.central.Main().Engine().State().Snapshot()
	if !bytes.Equal(first, central) {
		t.Fatalf("first recovery diverged (%d vs %d bytes)", len(first), len(central))
	}
	if !bytes.Equal(second, central) {
		t.Fatalf("second recovery diverged (%d vs %d bytes)", len(second), len(central))
	}
	if got := ext.Processed(); got > processedOnce {
		t.Fatalf("double recovery re-applied events: processed %d -> %d", processedOnce, got)
	}
}

// TestUnownedRecoveryBlockConverges feeds a recovery block — a
// TypeRecoveryState head plus a backup replay suffix — through the
// site's one data entry point with a nil ref, the form recovery
// transfers take under the single data-link contract: the heap-owned
// events must be queued as they are (replay retained in the backup,
// head not) and the replica must converge byte-for-byte.
func TestUnownedRecoveryBlockConverges(t *testing.T) {
	r := newRig(t, 1, func(cfg *CentralConfig) {
		cfg.Params = Params{CheckpointFreq: 1 << 30} // nothing trims the backup
	})
	r.feedPositions(t, 3, 10, 64)
	waitFor(t, "the central EDE to apply the first phase", func() bool { return r.central.Main().Processed() >= 30 })
	snap := r.central.BuildRecoverySince(nil)
	for i := uint64(100); i < 110; i++ {
		if err := r.central.Ingest(event.NewPosition(event.FlightID(1+i%3), i, float64(i), 7, 9000, 64)); err != nil {
			t.Fatal(err)
		}
	}
	r.central.Drain()
	snap.Events = r.central.Backup().SnapshotSince(snap.Cut)
	block := recoveryEvents(snap)
	if block[0].Type != event.TypeRecoveryState || len(snap.Events) == 0 {
		t.Fatalf("block = %s head + %d replayed events, want a state head and a non-empty suffix",
			block[0].Type, len(snap.Events))
	}

	fresh := NewMirrorSite(MirrorSiteConfig{})
	defer fresh.Close()
	if err := fresh.HandleOwnedBatch(block, nil); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Backup().Len(); got != len(snap.Events) {
		t.Fatalf("backup retains %d events, want the %d replayed ones", got, len(snap.Events))
	}
	fresh.Drain()
	cs := r.central.Main().Engine().State().Snapshot()
	fs := fresh.Main().Engine().State().Snapshot()
	if !bytes.Equal(cs, fs) {
		t.Fatalf("replica recovered from an un-owned block diverged: %d vs %d snapshot bytes", len(fs), len(cs))
	}
}
