package core

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestDeltaRejoinMidTraffic lags a mirror past a committed cut and
// rejoins it incrementally: the transfer must ship a TypeRecoveryDelta
// (not a snapshot), book a delta rejoin, and converge the mirror
// byte-for-byte with the central replica.
func TestDeltaRejoinMidTraffic(t *testing.T) {
	var drop atomic.Bool
	r := newRig(t, 1, func(cfg *CentralConfig) {
		cfg.Params = Params{CheckpointFreq: 10}
		inner := cfg.Mirrors[0].Data
		cfg.Mirrors[0].Data = senderFunc(func(e *event.Event) error {
			if drop.Load() {
				return nil
			}
			return inner.SubmitOwned([]*event.Event{e}, nil)
		})
	})
	m := r.mirrors[0]

	r.feedPositions(t, 3, 10, 64) // 30 events
	waitFor(t, "mirror to receive the first batch", func() bool { return m.Received() >= 30 })
	r.central.Checkpoint()
	waitFor(t, "a committed cut at the mirror", func() bool { return m.Backup().Committed() != nil })
	cut := m.Backup().Committed()

	// The mirror falls off the data link; only flight 1 mutates past
	// its cut.
	drop.Store(true)
	for i := 0; i < 5; i++ {
		if err := r.central.Ingest(event.NewPosition(1, uint64(100+i), float64(50+i), 8, 9000, 64)); err != nil {
			t.Fatal(err)
		}
	}
	r.central.Drain()
	drop.Store(false)

	var sawDelta, sawState bool
	n, err := r.central.RecoverMirrorSince(senderFunc(func(e *event.Event) error {
		switch e.Type {
		case event.TypeRecoveryDelta:
			sawDelta = true
		case event.TypeRecoveryState:
			sawState = true
		}
		m.HandleData(e)
		return nil
	}), cut)
	if err != nil {
		t.Fatal(err)
	}
	if !sawDelta || sawState {
		t.Fatalf("transfer modes: delta=%v state=%v, want an incremental delta", sawDelta, sawState)
	}
	if n != 0 {
		t.Fatalf("replayed %d backup events, want 0 (the drained backup holds nothing past the current cut)", n)
	}
	stats := r.central.RejoinStats()
	if stats.Deltas != 1 || stats.Snapshots != 0 {
		t.Fatalf("RejoinStats = %+v, want exactly one delta rejoin", stats)
	}
	if stats.DeltaBytes == 0 {
		t.Fatal("delta rejoin booked no wire bytes")
	}

	m.Drain()
	cs := r.central.Main().Engine().State().Snapshot()
	ms := m.Main().Engine().State().Snapshot()
	if !bytes.Equal(cs, ms) {
		t.Fatalf("delta-rejoined mirror diverged: %d vs %d snapshot bytes", len(cs), len(ms))
	}
}

// TestDeltaRejoinPastHorizonFallsBack presents a cut older than the
// journal floor: the transfer must fall back to the full snapshot and
// still converge byte-for-byte.
func TestDeltaRejoinPastHorizonFallsBack(t *testing.T) {
	r := newRig(t, 1, func(cfg *CentralConfig) {
		cfg.Params = Params{CheckpointFreq: 1 << 30} // manual checkpoints only
		cfg.DeltaHorizon = 2
	})
	m := r.mirrors[0]

	// Four distinct committed cuts: with horizon 2, the first falls
	// below the floor.
	var oldCut vclock.VC
	seq, committed := uint64(0), uint64(0)
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			seq++
			if err := r.central.Ingest(event.NewPosition(event.FlightID(1+seq%3), seq, float64(seq), 1, 9000, 64)); err != nil {
				t.Fatal(err)
			}
		}
		committed += 5
		want := committed
		waitFor(t, "mirror to receive the round", func() bool { return m.Received() >= want })
		r.central.Checkpoint()
		waitFor(t, "the round's commit", func() bool {
			c := m.Backup().Committed()
			if c != nil && c.Sum() >= want {
				return true
			}
			// A CHKPT proposal can race ahead of the round's data on
			// the mirror's path; the conservative vote then commits a
			// lower cut and a single round never covers the round's
			// events. Rounds are manual here, so just ask again.
			r.central.Checkpoint()
			return false
		})
		if round == 0 {
			oldCut = m.Backup().Committed()
		}
	}
	r.drainAll()

	if _, floor := r.central.Main().Engine().State().JournalSeals(); floor <= oldCut.Sum() {
		t.Fatalf("journal floor %d has not passed the old cut %d", floor, oldCut.Sum())
	}

	fresh := NewMirrorSite(MirrorSiteConfig{})
	defer fresh.Close()
	var sawDelta, sawState bool
	if _, err := r.central.RecoverMirrorSince(senderFunc(func(e *event.Event) error {
		switch e.Type {
		case event.TypeRecoveryDelta:
			sawDelta = true
		case event.TypeRecoveryState:
			sawState = true
		}
		fresh.HandleData(e)
		return nil
	}), oldCut); err != nil {
		t.Fatal(err)
	}
	if !sawState || sawDelta {
		t.Fatalf("transfer modes: delta=%v state=%v, want a snapshot fallback", sawDelta, sawState)
	}
	stats := r.central.RejoinStats()
	if stats.Snapshots != 1 || stats.Deltas != 0 {
		t.Fatalf("RejoinStats = %+v, want exactly one snapshot rejoin", stats)
	}

	fresh.Drain()
	cs := r.central.Main().Engine().State().Snapshot()
	ms := fresh.Main().Engine().State().Snapshot()
	if !bytes.Equal(cs, ms) {
		t.Fatalf("fallback-recovered mirror diverged: %d vs %d snapshot bytes", len(cs), len(ms))
	}
}

// TestFieldDeltaRegimeConverges turns on delta mirroring: the sending
// task rewrites mirror traffic into TypeStateDelta frames, and every
// mirror must still converge byte-for-byte with the central replica.
func TestFieldDeltaRegimeConverges(t *testing.T) {
	r := newRig(t, 2, nil)
	r.central.SetFieldDeltas(true)
	if !r.central.FieldDeltas() {
		t.Fatal("field-delta regime not installed")
	}

	r.feedPositions(t, 3, 10, 64)
	// A status lifecycle and a boarding run exercise the derived-event
	// paths under the delta regime.
	seq := uint64(1000)
	for _, s := range []event.Status{event.StatusBoarding, event.StatusDeparted, event.StatusAtGate} {
		seq++
		if err := r.central.Ingest(event.NewStatus(2, seq, s, 16)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		seq++
		ge := &event.Event{
			Type: event.TypeGateReader, Flight: 3, Seq: seq, Coalesced: 1,
			Payload: []byte{2, 0, 0, 0},
		}
		if err := r.central.Ingest(ge); err != nil {
			t.Fatal(err)
		}
	}
	r.drainAll()

	cs := r.central.Main().Engine().State().Snapshot()
	for i, m := range r.mirrors {
		ms := m.Main().Engine().State().Snapshot()
		if !bytes.Equal(cs, ms) {
			t.Fatalf("mirror %d diverged under the field-delta regime: %d vs %d snapshot bytes", i, len(cs), len(ms))
		}
		fs, ok := m.Main().Engine().State().Get(2)
		if !ok || !fs.Arrived || fs.Status != event.StatusArrived {
			t.Fatalf("mirror %d flight 2 = %+v, want derived arrival", i, fs)
		}
		bs, ok := m.Main().Engine().State().Get(3)
		if !ok || !bs.AllBoarded || bs.PaxBoarded != 2 {
			t.Fatalf("mirror %d flight 3 = %+v, want all-boarded", i, bs)
		}
	}
}
