package ede

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"adaptmirror/internal/event"
	"adaptmirror/internal/statedelta"
	"adaptmirror/internal/vclock"
)

// feedPosition processes one position event for flight f stamped at
// scalar position sum (single-component VT: sum order = stamp order).
func feedPosition(en *Engine, f event.FlightID, sum uint64) {
	e := event.NewPosition(f, sum, float64(f), float64(sum), 100, 64)
	e.VT = vclock.VC{sum}
	en.Process(e)
}

func TestDeltaSinceUnservable(t *testing.T) {
	en := engine()
	feedPosition(en, 1, 1)
	if _, ok := en.State().DeltaSince(vclock.VC{0}); ok {
		t.Fatal("journaling off: cut served incrementally")
	}
	en.State().EnableJournal(0, nil)
	if _, ok := en.State().DeltaSince(nil); ok {
		t.Fatal("nil cut served incrementally")
	}
	// Mutations from before enablement are not covered.
	en2 := engine()
	feedPosition(en2, 1, 5)
	en2.State().EnableJournal(0, en2.LastProcessed())
	if _, ok := en2.State().DeltaSince(vclock.VC{3}); ok {
		t.Fatal("cut below the enablement floor served incrementally")
	}
	if _, ok := en2.State().DeltaSince(vclock.VC{5}); !ok {
		t.Fatal("cut at the enablement floor not served")
	}
}

func TestDeltaSinceReturnsMutatedFlights(t *testing.T) {
	en := engine()
	en.State().EnableJournal(0, nil)
	for f := event.FlightID(1); f <= 5; f++ {
		feedPosition(en, f, uint64(f))
	}
	// Flight 2 mutates again late: it must be included even though its
	// first mutation predates the cut.
	feedPosition(en, 2, 6)

	recs, ok := en.State().DeltaSince(vclock.VC{3})
	if !ok {
		t.Fatal("covered cut not served")
	}
	want := []event.FlightID{2, 4, 5}
	if len(recs) != len(want) {
		t.Fatalf("delta carries %d flights, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Flight != want[i] {
			t.Fatalf("record %d is flight %d, want %d (sorted by ID)", i, r.Flight, want[i])
		}
		if r.Mask != statedelta.MaskAll {
			t.Fatalf("record %d mask %#x, want absolute MaskAll", i, r.Mask)
		}
	}
	// Absolute records carry current state, not the pre-cut value.
	if recs[0].Lon != 6 {
		t.Fatalf("flight 2 Lon = %v, want its latest value 6", recs[0].Lon)
	}
	if n := en.State().JournalFlights(); n != 5 {
		t.Fatalf("JournalFlights = %d, want 5", n)
	}
}

func TestSealCutHorizonCompaction(t *testing.T) {
	en := engine()
	en.State().EnableJournal(2, nil)
	for f := event.FlightID(1); f <= 6; f++ {
		feedPosition(en, f, uint64(f))
		en.State().SealCut(vclock.VC{uint64(f)})
	}
	// Horizon 2 retains seals [5 6]; the floor rose to 4 and entries at
	// or below it were compacted away.
	seals, floor := en.State().JournalSeals()
	if seals != 2 || floor != 4 {
		t.Fatalf("seals=%d floor=%d, want 2 and 4", seals, floor)
	}
	if n := en.State().JournalFlights(); n != 2 {
		t.Fatalf("JournalFlights = %d after compaction, want 2", n)
	}
	if _, ok := en.State().DeltaSince(vclock.VC{3}); ok {
		t.Fatal("cut below the floor served incrementally")
	}
	recs, ok := en.State().DeltaSince(vclock.VC{5})
	if !ok || len(recs) != 1 || recs[0].Flight != 6 {
		t.Fatalf("DeltaSince(5) = %v, %v; want exactly flight 6", recs, ok)
	}
}

func TestSealCutIgnoresStaleCommits(t *testing.T) {
	en := engine()
	en.State().EnableJournal(2, nil)
	en.State().SealCut(vclock.VC{5})
	en.State().SealCut(vclock.VC{5}) // re-delivered
	en.State().SealCut(vclock.VC{3}) // stale
	seals, floor := en.State().JournalSeals()
	if seals != 1 || floor != 0 {
		t.Fatalf("seals=%d floor=%d after stale commits, want 1 and 0", seals, floor)
	}
}

func TestApplyDeltaAbsoluteIdempotent(t *testing.T) {
	src := engine()
	src.State().EnableJournal(0, nil)
	feedPosition(src, 1, 1)
	feedPosition(src, 2, 2)
	en := src
	recs, ok := en.State().DeltaSince(vclock.VC{0})
	if !ok || len(recs) != 2 {
		t.Fatalf("DeltaSince = %v, %v", recs, ok)
	}
	frame, err := statedelta.EncodeFrame(recs)
	if err != nil {
		t.Fatal(err)
	}

	dst := engine()
	if err := dst.State().ApplyDeltaAbsolute(frame); err != nil {
		t.Fatal(err)
	}
	once := dst.State().Snapshot()
	if err := dst.State().ApplyDeltaAbsolute(frame); err != nil {
		t.Fatal(err)
	}
	twice := dst.State().Snapshot()
	if !bytes.Equal(once, twice) {
		t.Fatal("re-applying an absolute delta changed the state")
	}
	fs, ok := dst.State().Get(2)
	if !ok || fs.Lat != 2 || fs.Lon != 2 || fs.PositionUpdates != 1 {
		t.Fatalf("flight 2 after absolute apply = %+v", fs)
	}
	// A corrupted frame must change nothing.
	bad := append([]byte(nil), frame...)
	bad[len(bad)/2] ^= 0x41
	if err := dst.State().ApplyDeltaAbsolute(bad); err == nil {
		t.Fatal("corrupt delta frame accepted")
	}
	if after := dst.State().Snapshot(); !bytes.Equal(twice, after) {
		t.Fatal("rejected delta frame mutated the state")
	}
}

func TestInstallResetsJournal(t *testing.T) {
	src := engine()
	feedPosition(src, 1, 1)

	dst := engine()
	dst.State().EnableJournal(0, nil)
	feedPosition(dst, 7, 3)
	if n := dst.State().JournalFlights(); n != 1 {
		t.Fatalf("JournalFlights = %d before install, want 1", n)
	}
	if err := dst.State().Install(src.State().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := dst.State().JournalFlights(); n != 0 {
		t.Fatalf("JournalFlights = %d after install, want 0 (journal describes replaced state)", n)
	}
}

// TestDeltaRuleConvergence feeds one replica raw events and another
// the equivalent field-delta events; both must converge to the same
// state and derive the same events.
func TestDeltaRuleConvergence(t *testing.T) {
	raw := engine()
	viaDelta := engine()
	const pax = 2

	deltaEvent := func(f event.FlightID, seq uint64, r statedelta.Record) *event.Event {
		r.Flight = f
		frame, err := statedelta.EncodeFrame([]statedelta.Record{r})
		if err != nil {
			t.Fatal(err)
		}
		return &event.Event{
			Type: event.TypeStateDelta, Flight: f, Seq: seq, Coalesced: 1,
			Payload: frame, VT: vclock.VC{seq},
		}
	}

	var rawDerived, deltaDerived []*event.Event
	collect := func(dst *[]*event.Event, d []*event.Event) { *dst = append(*dst, d...) }

	// Position updates.
	e := event.NewPosition(1, 1, 10, 20, 30000, 64)
	e.VT = vclock.VC{1}
	d, _ := raw.Process(e)
	collect(&rawDerived, d)
	d, _ = viaDelta.Process(deltaEvent(1, 1, statedelta.Record{
		Mask: statedelta.MaskPosition | statedelta.MaskCounters,
		Lat:  10, Lon: 20, Alt: 30000, Weight: 1,
	}))
	collect(&deltaDerived, d)

	// Boarding to completion.
	for i := 0; i < pax; i++ {
		ge := &event.Event{
			Type: event.TypeGateReader, Flight: 2, Seq: uint64(2 + i), Coalesced: 1,
			Payload: []byte{pax, 0, 0, 0}, VT: vclock.VC{uint64(2 + i)},
		}
		d, _ = raw.Process(ge)
		collect(&rawDerived, d)
		d, _ = viaDelta.Process(deltaEvent(2, uint64(2+i), statedelta.Record{
			Mask: statedelta.MaskPax, PaxExpected: pax, Weight: 1,
		}))
		collect(&deltaDerived, d)
	}

	// Arrival at the gate.
	se := event.NewStatus(1, 5, event.StatusAtGate, 16)
	se.VT = vclock.VC{5}
	d, _ = raw.Process(se)
	collect(&rawDerived, d)
	d, _ = viaDelta.Process(deltaEvent(1, 5, statedelta.Record{
		Mask: statedelta.MaskStatus, Status: uint8(event.StatusAtGate), Weight: 1,
	}))
	collect(&deltaDerived, d)

	if !bytes.Equal(raw.State().Snapshot(), viaDelta.State().Snapshot()) {
		t.Fatal("delta-fed replica diverged from raw-fed replica")
	}
	if len(rawDerived) != len(deltaDerived) {
		t.Fatalf("derived %d events via deltas, want %d as via raw events", len(deltaDerived), len(rawDerived))
	}
	for i := range rawDerived {
		if rawDerived[i].Type != deltaDerived[i].Type || rawDerived[i].Flight != deltaDerived[i].Flight {
			t.Fatalf("derived event %d: %s vs %s", i, deltaDerived[i], rawDerived[i])
		}
	}
}

// refJournal is the mutation journal with the per-seal compaction it
// used to run: every rise of the floor deletes the entries it covers at
// once. It is the reference the amortized sweep must be
// indistinguishable from.
type refJournal struct {
	horizon int
	floor   uint64
	seals   []uint64
	last    map[event.FlightID]uint64
}

func (r *refJournal) compact() {
	for f, l := range r.last {
		if l <= r.floor {
			delete(r.last, f)
		}
	}
}

func (r *refJournal) seal(sum uint64) {
	if n := len(r.seals); n > 0 && sum <= r.seals[n-1] {
		return
	}
	r.seals = append(r.seals, sum)
	if evict := len(r.seals) - r.horizon; evict > 0 {
		r.floor = r.seals[evict-1]
		r.seals = r.seals[evict:]
		r.compact()
	}
}

func (r *refJournal) rebase(sum uint64) {
	r.floor = max(r.floor, sum)
	r.seals = nil
	r.compact()
}

func (r *refJournal) deltaSince(cut uint64) ([]event.FlightID, bool) {
	if cut < r.floor {
		return nil, false
	}
	var out []event.FlightID
	for f, l := range r.last {
		if l > cut {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out, true
}

// TestJournalAmortizedSweepMatchesReference: over random mixes of
// applies, seals and rebases, the journal that sweeps once per horizon
// answers DeltaSince and JournalFlights exactly as one that compacts at
// every seal.
func TestJournalAmortizedSweepMatchesReference(t *testing.T) {
	const horizon = 3
	check := func(ops []uint16) bool {
		en := engine()
		en.State().EnableJournal(horizon, nil)
		ref := &refJournal{horizon: horizon, last: map[event.FlightID]uint64{}}
		seq := uint64(0)
		back := func(op uint16, span uint64) uint64 { return seq - min(seq, uint64(op>>3)%span) }
		for i, op := range ops {
			switch op % 8 {
			case 5, 6:
				cut := back(op, 6)
				en.State().SealCut(vclock.VC{cut})
				ref.seal(cut)
			case 7:
				cut := back(op, 9)
				en.State().RebaseJournal(vclock.VC{cut})
				ref.rebase(cut)
			default:
				seq++
				f := event.FlightID(1 + (op>>3)%7)
				feedPosition(en, f, seq)
				ref.last[f] = seq
			}
			if got, want := en.State().JournalFlights(), len(ref.last); got != want {
				t.Logf("op %d: JournalFlights = %d, reference %d", i, got, want)
				return false
			}
			for _, cut := range []uint64{0, ref.floor - min(ref.floor, 1), ref.floor, back(op, 12), seq} {
				recs, ok := en.State().DeltaSince(vclock.VC{cut})
				want, wantOK := ref.deltaSince(cut)
				var got []event.FlightID
				for _, r := range recs {
					got = append(got, r.Flight)
				}
				if ok != wantOK || !slices.Equal(got, want) {
					t.Logf("op %d: DeltaSince(%d) = %v %v, reference %v %v", i, cut, got, ok, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
