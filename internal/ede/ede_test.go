package ede

import (
	"encoding/binary"
	"testing"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

func engine() *Engine { return New(Config{}) } // zero cost model for tests

func TestPositionRuleUpdatesState(t *testing.T) {
	en := engine()
	en.Process(event.NewPosition(7, 1, 33.6, -84.4, 12000, 64))
	fs, ok := en.State().Get(7)
	if !ok {
		t.Fatal("flight 7 not tracked")
	}
	if fs.Lat != 33.6 || fs.Lon != -84.4 || fs.Alt != 12000 {
		t.Fatalf("position = %v,%v,%v", fs.Lat, fs.Lon, fs.Alt)
	}
	if fs.PositionUpdates != 1 {
		t.Fatalf("PositionUpdates = %d, want 1", fs.PositionUpdates)
	}
}

func TestCoalescedEventsCountByWeight(t *testing.T) {
	en := engine()
	e := event.NewPosition(7, 5, 1, 2, 3, 64)
	e.Coalesced = 10
	en.Process(e)
	fs, _ := en.State().Get(7)
	if fs.PositionUpdates != 10 {
		t.Fatalf("PositionUpdates = %d, want 10 (weighted)", fs.PositionUpdates)
	}
	if en.State().Processed() != 10 {
		t.Fatalf("Processed = %d, want 10", en.State().Processed())
	}
}

func TestStatusRuleMonotonic(t *testing.T) {
	en := engine()
	en.Process(event.NewStatus(3, 1, event.StatusLanded, 16))
	en.Process(event.NewStatus(3, 2, event.StatusBoarding, 16)) // stale
	fs, _ := en.State().Get(3)
	if fs.Status != event.StatusLanded {
		t.Fatalf("Status = %s, want landed", fs.Status)
	}
}

func TestBoardingRuleDerivesAllBoarded(t *testing.T) {
	en := engine()
	const pax = 3
	var derived []*event.Event
	for i := 0; i < pax; i++ {
		e := &event.Event{
			Type: event.TypeGateReader, Flight: 9, Seq: uint64(i), Coalesced: 1,
			Payload: []byte{pax, 0, 0, 0},
			VT:      vclock.VC{uint64(i + 1)},
		}
		d, _ := en.Process(e)
		derived = append(derived, d...)
	}
	if len(derived) != 1 {
		t.Fatalf("derived %d events, want 1 AllBoarded", len(derived))
	}
	if derived[0].Type != event.TypeAllBoarded || derived[0].Flight != 9 {
		t.Fatalf("derived = %s", derived[0])
	}
	fs, _ := en.State().Get(9)
	if !fs.AllBoarded || fs.PaxBoarded != pax {
		t.Fatalf("state = %+v", fs)
	}
	// Extra boardings must not re-derive.
	e := &event.Event{Type: event.TypeGateReader, Flight: 9, Coalesced: 1, Payload: []byte{pax, 0, 0, 0}}
	if more, _ := en.Process(e); len(more) != 0 {
		t.Fatalf("re-derived AllBoarded: %v", more)
	}
}

func TestBoardingRuleShortPayload(t *testing.T) {
	en := engine()
	e := &event.Event{Type: event.TypeGateReader, Flight: 1, Coalesced: 1, Payload: []byte{1}}
	if out, _ := en.Process(e); out != nil {
		t.Fatalf("derived %v from short payload", out)
	}
	fs, _ := en.State().Get(1)
	if fs.PaxExpected != 0 || fs.PaxBoarded != 1 {
		t.Fatalf("state = %+v", fs)
	}
}

func TestArrivalRuleDerivesOnce(t *testing.T) {
	en := engine()
	d, _ := en.Process(event.NewStatus(5, 1, event.StatusAtGate, 16))
	if len(d) != 1 || d[0].Type != event.TypeFlightArrived {
		t.Fatalf("derived = %v", d)
	}
	fs, _ := en.State().Get(5)
	if !fs.Arrived || fs.Status != event.StatusArrived {
		t.Fatalf("state = %+v", fs)
	}
	if d2, _ := en.Process(event.NewStatus(5, 2, event.StatusAtGate, 16)); len(d2) != 0 {
		t.Fatalf("second at-gate re-derived: %v", d2)
	}
}

func TestFlightArrivedEventAdvancesStatus(t *testing.T) {
	// A mirrored complex event (from the central site's tuple
	// collapse) must advance lifecycle state just like raw events.
	en := engine()
	e := &event.Event{Type: event.TypeFlightArrived, Flight: 4, Coalesced: 1}
	en.Process(e)
	fs, _ := en.State().Get(4)
	if fs.Status != event.StatusArrived {
		t.Fatalf("Status = %s, want arrived", fs.Status)
	}
}

func TestLastProcessedMergesTimestamps(t *testing.T) {
	en := engine()
	e1 := event.NewPosition(1, 1, 0, 0, 0, 32)
	e1.VT = vclock.VC{3, 0}
	e2 := event.NewStatus(1, 1, event.StatusLanded, 16)
	e2.VT = vclock.VC{3, 5}
	en.Process(e1)
	en.Process(e2)
	if got := en.LastProcessed(); got.Compare(vclock.VC{3, 5}) != vclock.Equal {
		t.Fatalf("LastProcessed = %v, want <3,5>", got)
	}
}

func TestLastProcessedEmptyInitially(t *testing.T) {
	en := engine()
	if got := en.LastProcessed(); got != nil {
		t.Fatalf("LastProcessed = %v, want nil", got)
	}
	en.Process(event.NewPosition(1, 1, 0, 0, 0, 32)) // unstamped
	if got := en.LastProcessed(); got != nil {
		t.Fatalf("LastProcessed after unstamped event = %v, want nil", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	en := New(Config{StatePadding: 16})
	en.Process(event.NewPosition(1, 1, 10, 20, 30000, 64))
	en.Process(event.NewStatus(2, 1, event.StatusLanded, 16))
	en.Process(&event.Event{Type: event.TypeGateReader, Flight: 3, Coalesced: 1, Payload: []byte{2, 0, 0, 0}})

	snap := en.State().Snapshot()
	if len(snap) != en.State().SnapshotSize() {
		t.Fatalf("snapshot %d bytes, SnapshotSize says %d", len(snap), en.State().SnapshotSize())
	}
	got, err := DecodeSnapshot(snap, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d flights, want 3", len(got))
	}
	if f1 := got[1]; f1.Lat != 10 || f1.Lon != 20 || f1.Alt != 30000 || f1.PositionUpdates != 1 {
		t.Fatalf("flight 1 = %+v", f1)
	}
	if f2 := got[2]; f2.Status != event.StatusLanded {
		t.Fatalf("flight 2 = %+v", f2)
	}
	if f3 := got[3]; f3.PaxExpected != 2 || f3.PaxBoarded != 1 {
		t.Fatalf("flight 3 = %+v", f3)
	}
}

func TestSnapshotFlags(t *testing.T) {
	en := engine()
	en.Process(&event.Event{Type: event.TypeGateReader, Flight: 1, Coalesced: 1, Payload: []byte{1, 0, 0, 0}})
	en.Process(event.NewStatus(2, 1, event.StatusAtGate, 16))
	got, err := DecodeSnapshot(en.State().Snapshot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got[1].AllBoarded {
		t.Fatal("AllBoarded flag lost in round trip")
	}
	if !got[2].Arrived {
		t.Fatal("Arrived flag lost in round trip")
	}
}

func TestDecodeSnapshotErrors(t *testing.T) {
	if _, err := DecodeSnapshot([]byte{1, 2}, 0); err == nil {
		t.Fatal("short snapshot must fail")
	}
	en := engine()
	en.Process(event.NewPosition(1, 1, 0, 0, 0, 32))
	snap := en.State().Snapshot()
	if _, err := DecodeSnapshot(snap[:len(snap)-3], 0); err == nil {
		t.Fatal("truncated snapshot must fail")
	}
	if _, err := DecodeSnapshot(snap, 8); err == nil {
		t.Fatal("wrong padding must fail")
	}
}

// TestDecodeSnapshotNegativePadding: a negative padding is an error,
// never a division by a zero record size, an out-of-range read, or an
// empty snapshot accepted by a meaningless size check.
func TestDecodeSnapshotNegativePadding(t *testing.T) {
	snap := func(flights uint64, body int) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, flights), make([]byte, body)...)
	}
	en := engine()
	en.Process(event.NewPosition(1, 1, 0, 0, 0, 32))
	cases := []struct {
		name    string
		padding int
		buf     []byte
	}{
		{"zero record, empty", -flightRecordSize, snap(0, 0)},
		{"zero record, one flight", -flightRecordSize, snap(1, flightRecordSize)},
		{"short record", -40, snap(1, flightRecordSize-40)},
		{"negative record", -100, snap(0, 0)},
		{"minus one", -1, en.State().Snapshot()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeSnapshot(c.buf, c.padding); err == nil {
				t.Fatalf("padding %d accepted", c.padding)
			}
		})
	}
}

func TestServeInitState(t *testing.T) {
	en := engine()
	en.Process(event.NewPosition(1, 1, 0, 0, 0, 32))
	snap := en.ServeInitState()
	if snap.Len() != en.State().SnapshotSize() {
		t.Fatalf("init state %d bytes, want %d", snap.Len(), en.State().SnapshotSize())
	}
}

func TestReplicaConvergenceUnderFiltering(t *testing.T) {
	// Central processes every raw event; the mirror sees the filtered
	// stream: only the last of each run of 5 positions, with the run
	// folded into Coalesced. Their states must agree on everything
	// mirroring promises to preserve.
	central, mirror := engine(), engine()
	var lastPos *event.Event
	run := 0
	for i := 0; i < 50; i++ {
		e := event.NewPosition(1, uint64(i), float64(i), float64(-i), 10000, 64)
		central.Process(e)
		lastPos = e
		run++
		if run == 5 {
			m := lastPos.Clone()
			m.Coalesced = 5
			mirror.Process(m)
			run = 0
		}
	}
	st := event.NewStatus(1, 1, event.StatusLanded, 16)
	central.Process(st)
	mirror.Process(st.Clone())

	cf, _ := central.State().Get(1)
	mf, _ := mirror.State().Get(1)
	if cf.Lat != mf.Lat || cf.Lon != mf.Lon {
		t.Fatalf("positions diverged: central %v,%v mirror %v,%v", cf.Lat, cf.Lon, mf.Lat, mf.Lon)
	}
	if cf.Status != mf.Status {
		t.Fatalf("status diverged: %s vs %s", cf.Status, mf.Status)
	}
	if cf.PositionUpdates != mf.PositionUpdates {
		t.Fatalf("weighted update counts diverged: %d vs %d", cf.PositionUpdates, mf.PositionUpdates)
	}
}

func TestCustomRuleInstallation(t *testing.T) {
	called := 0
	r := ruleFunc{name: "probe", fn: func(st *State, e *event.Event) []*event.Event {
		called++
		return nil
	}}
	en := New(Config{Rules: []Rule{r}})
	en.Process(event.NewPosition(1, 1, 0, 0, 0, 32))
	if called != 1 {
		t.Fatalf("custom rule called %d times, want 1", called)
	}
}

type ruleFunc struct {
	name string
	fn   func(*State, *event.Event) []*event.Event
}

func (r ruleFunc) Name() string                                   { return r.name }
func (r ruleFunc) Apply(st *State, e *event.Event) []*event.Event { return r.fn(st, e) }

func TestRuleNames(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range DefaultRules() {
		if r.Name() == "" {
			t.Fatal("rule with empty name")
		}
		if seen[r.Name()] {
			t.Fatalf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
}

func BenchmarkProcessPosition(b *testing.B) {
	en := New(Config{})
	e := event.NewPosition(1, 1, 1, 2, 3, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.Process(e)
	}
}

func BenchmarkSnapshot1000Flights(b *testing.B) {
	en := New(Config{})
	for f := 0; f < 1000; f++ {
		en.Process(event.NewPosition(event.FlightID(f), 1, 1, 2, 3, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = en.State().Snapshot()
	}
}
