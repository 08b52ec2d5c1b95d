package faultinject

import (
	"bytes"
	"testing"

	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
)

// recorder collects delivered events.
type recorder struct {
	got []*event.Event
}

func (r *recorder) Submit(e *event.Event) error {
	r.got = append(r.got, e)
	return nil
}

// SubmitOwned lets the recorder stand behind a data link; tests submit
// heap-owned events, so keeping them is within the contract.
func (r *recorder) SubmitOwned(es []*event.Event, _ event.Ref) error {
	r.got = append(r.got, es...)
	return nil
}

func mkEvents(n int) []*event.Event {
	out := make([]*event.Event, n)
	for i := range out {
		out[i] = &event.Event{
			Type:    event.TypeFAAPosition,
			Seq:     uint64(i + 1),
			Payload: []byte{byte(i), byte(i >> 8), 0xAA, 0x55},
		}
	}
	return out
}

// deliverySignature runs n events through a freshly wrapped link and
// returns the delivered Seq sequence.
func deliverySignature(seed int64, f Faults, n int) []uint64 {
	rec := &recorder{}
	l := NewPlane(seed, nil).Wrap("sig", rec, f)
	for _, e := range mkEvents(n) {
		if err := l.Submit(e); err != nil {
			panic(err)
		}
	}
	if err := l.Flush(); err != nil {
		panic(err)
	}
	sig := make([]uint64, len(rec.got))
	for i, e := range rec.got {
		sig[i] = e.Seq
	}
	return sig
}

func TestSameSeedSameDecisions(t *testing.T) {
	f := Faults{Drop: 0.2, Duplicate: 0.15, Reorder: 0.2, Corrupt: 0.1}
	a := deliverySignature(42, f, 500)
	b := deliverySignature(42, f, 500)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision streams diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	f := Faults{Drop: 0.2, Duplicate: 0.15, Reorder: 0.2, Corrupt: 0.1}
	a := deliverySignature(1, f, 500)
	b := deliverySignature(2, f, 500)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical decision streams")
		}
	}
}

func TestLinkNamesGetIndependentStreams(t *testing.T) {
	f := Faults{Drop: 0.5}
	p := NewPlane(7, nil)
	ra, rb := &recorder{}, &recorder{}
	la := p.Wrap("a", ra, f)
	lb := p.Wrap("b", rb, f)
	for _, e := range mkEvents(200) {
		_ = la.Submit(e)
		_ = lb.Submit(e)
	}
	if len(ra.got) == len(rb.got) {
		same := true
		for i := range ra.got {
			if ra.got[i].Seq != rb.got[i].Seq {
				same = false
				break
			}
		}
		if same {
			t.Fatal("links a and b drew identical decision streams")
		}
	}
}

func TestFaultFreePassThrough(t *testing.T) {
	rec := &recorder{}
	l := NewPlane(1, nil).Wrap("clean", rec, Faults{})
	events := mkEvents(100)
	for _, e := range events {
		if err := l.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.got) != 100 {
		t.Fatalf("delivered %d, want 100", len(rec.got))
	}
	for i, e := range rec.got {
		if e != events[i] {
			t.Fatalf("event %d was copied or reordered", i)
		}
	}
}

func TestDropRate(t *testing.T) {
	rec := &recorder{}
	l := NewPlane(3, nil).Wrap("lossy", rec, Faults{Drop: 0.3})
	for _, e := range mkEvents(2000) {
		_ = l.Submit(e)
	}
	if n := len(rec.got); n < 1200 || n > 1600 {
		t.Fatalf("delivered %d of 2000 at drop=0.3", n)
	}
}

func TestCorruptClonesPayload(t *testing.T) {
	rec := &recorder{}
	l := NewPlane(5, nil).Wrap("noisy", rec, Faults{Corrupt: 1})
	orig := &event.Event{Type: event.TypeFAAPosition, Seq: 1, Payload: []byte{1, 2, 3, 4}}
	keep := append([]byte(nil), orig.Payload...)
	if err := l.Submit(orig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Payload, keep) {
		t.Fatal("corruption mutated the caller's event")
	}
	if len(rec.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(rec.got))
	}
	if bytes.Equal(rec.got[0].Payload, keep) {
		t.Fatal("payload not corrupted at probability 1")
	}
	diff := 0
	for i := range keep {
		diff += popcount(keep[i] ^ rec.got[0].Payload[i])
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestReorderSwapsAdjacent(t *testing.T) {
	rec := &recorder{}
	l := NewPlane(9, nil).Wrap("scrambled", rec, Faults{Reorder: 1})
	events := mkEvents(4)
	for _, e := range events {
		_ = l.Submit(e)
	}
	_ = l.Flush()
	// With reorder=1 every submission holds, releasing the previous:
	// 1 held; 2 delivered, 1 released ... final flush releases last.
	if len(rec.got) != 4 {
		t.Fatalf("delivered %d of 4", len(rec.got))
	}
	want := []uint64{2, 1, 4, 3}
	for i, e := range rec.got {
		if e.Seq != want[i] {
			got := make([]uint64, len(rec.got))
			for j, g := range rec.got {
				got[j] = g.Seq
			}
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	rec := &recorder{}
	l := NewPlane(11, nil).Wrap("dup", rec, Faults{Duplicate: 1})
	_ = l.Submit(mkEvents(1)[0])
	if len(rec.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(rec.got))
	}
	if rec.got[0].Seq != rec.got[1].Seq {
		t.Fatal("duplicate has different identity")
	}
}

func TestPartitionSwallowsAndHeals(t *testing.T) {
	rec := &recorder{}
	l := NewPlane(13, nil).Wrap("part", rec, Faults{})
	events := mkEvents(30)
	for _, e := range events[:10] {
		_ = l.Submit(e)
	}
	l.SetDown(true)
	if !l.Down() {
		t.Fatal("Down() false after SetDown(true)")
	}
	for _, e := range events[10:20] {
		_ = l.Submit(e)
	}
	l.SetDown(false)
	for _, e := range events[20:] {
		_ = l.Submit(e)
	}
	if len(rec.got) != 20 {
		t.Fatalf("delivered %d, want 20 (10 swallowed)", len(rec.got))
	}
	if rec.got[10].Seq != 21 {
		t.Fatalf("first post-heal event Seq = %d, want 21", rec.got[10].Seq)
	}
}

// TestBatchPathMatchesFaults: a data link draws the same decisions in
// the same order for one SubmitOwned batch as a control link does for
// the same events submitted one at a time.
func TestBatchPathMatchesFaults(t *testing.T) {
	f := Faults{Drop: 0.2, Duplicate: 0.15, Reorder: 0.2, Corrupt: 0.1}
	want := deliverySignature(17, f, 1000)
	rec := &recorder{}
	l := NewPlane(17, nil).WrapData("sig", rec, f)
	if err := l.SubmitOwned(mkEvents(1000), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != len(want) {
		t.Fatalf("batch delivered %d events, per-event path %d", len(rec.got), len(want))
	}
	for i, e := range rec.got {
		if e.Seq != want[i] {
			t.Fatalf("decision streams diverge at %d: %d vs %d", i, e.Seq, want[i])
		}
	}
}

func TestCountersTrackInjections(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPlane(19, reg)
	rec := &recorder{}
	l := p.Wrap("ctr", rec, Faults{Drop: 1})
	for _, e := range mkEvents(25) {
		_ = l.Submit(e)
	}
	if len(rec.got) != 0 {
		t.Fatalf("delivered %d with drop=1", len(rec.got))
	}
	if got := l.dropped.Value(); got != 25 {
		t.Fatalf("drop counter = %d, want 25", got)
	}
	l.SetDown(true)
	for _, e := range mkEvents(5) {
		_ = l.Submit(e)
	}
	if got := l.partitioned.Value(); got != 5 {
		t.Fatalf("partition counter = %d, want 5", got)
	}
}

func TestWrapSameNameReturnsSameLink(t *testing.T) {
	p := NewPlane(23, nil)
	rec := &recorder{}
	a := p.Wrap("x", rec, Faults{})
	b := p.Wrap("x", rec, Faults{})
	if a != b {
		t.Fatal("Wrap minted a second link for the same name")
	}
	if p.Link("x") != a {
		t.Fatal("Link lookup missed")
	}
	if p.Link("y") != nil {
		t.Fatal("Link returned a link never wrapped")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := NewSchedule(seed, 4)
		b := NewSchedule(seed, 4)
		if a != b {
			t.Fatalf("seed %d: schedules differ: %v vs %v", seed, a, b)
		}
		if a.CrashMirror < 0 || a.CrashMirror >= 4 {
			t.Fatalf("seed %d: crash mirror %d out of range", seed, a.CrashMirror)
		}
		if a.SlowMirror == a.CrashMirror {
			t.Fatalf("seed %d: slow mirror equals crash mirror", seed)
		}
		if a.CrashAfterFrac <= 0 || a.CrashAfterFrac >= 1 || a.DownFrac <= 0 || a.CrashAfterFrac+a.DownFrac >= 1 {
			t.Fatalf("seed %d: fractions out of range: %v", seed, a)
		}
	}
	if NewSchedule(1, 4) == NewSchedule(2, 4) {
		t.Fatal("seeds 1 and 2 produced the same schedule")
	}
}
