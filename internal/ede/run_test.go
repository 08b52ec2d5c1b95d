package ede

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/statedelta"
	"adaptmirror/internal/vclock"
)

// mixedStream builds a seeded stream of n stamped events over a small
// flight set: positions, status transitions (at-gate ones derive
// FlightArrived), gate-reader boardings (the third per flight derives
// AllBoarded), plus one recovery snapshot at n/3 and one recovery
// delta at 2n/3, both carrying state a donor engine built.
func mixedStream(t *testing.T, seed int64, n int) []*event.Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const flights = 97

	donor := New(Config{StatePadding: 8})
	donor.State().EnableJournal(0, nil)
	for f := 1; f <= 5; f++ {
		e := event.NewPosition(event.FlightID(1000+f), uint64(f), float64(f), float64(-f), 9000, 32)
		e.VT = vclock.VC{uint64(f)}
		donor.Process(e)
	}
	snapshot := donor.State().Snapshot()
	recs, ok := donor.State().DeltaSince(vclock.VC{2})
	if !ok || len(recs) == 0 {
		t.Fatalf("donor DeltaSince = %v, %v", recs, ok)
	}
	delta, err := statedelta.EncodeFrame(recs)
	if err != nil {
		t.Fatal(err)
	}

	statuses := []event.Status{
		event.StatusBoarding, event.StatusLanded, event.StatusAtRunway, event.StatusAtGate,
	}
	out := make([]*event.Event, n)
	for i := range out {
		f := event.FlightID(1 + rng.Intn(flights))
		seq := uint64(i + 1)
		var e *event.Event
		switch r := rng.Intn(100); {
		case i == n/3:
			e = &event.Event{Type: event.TypeRecoveryState, Coalesced: 1, Payload: snapshot}
		case i == 2*n/3:
			e = &event.Event{Type: event.TypeRecoveryDelta, Coalesced: 1, Payload: delta}
		case r < 70:
			e = event.NewPosition(f, seq, rng.Float64()*90, rng.Float64()*-180, 30000, 64+rng.Intn(512))
			e.Coalesced = uint32(1 + rng.Intn(3))
		case r < 85:
			e = event.NewStatus(f, seq, statuses[rng.Intn(len(statuses))], 16)
		default:
			e = &event.Event{Type: event.TypeGateReader, Flight: f, Seq: seq, Coalesced: 1, Payload: []byte{3, 0, 0, 0}}
		}
		e.VT = vclock.VC{seq}
		e.Ingress = int64(seq)
		out[i] = e
	}
	return out
}

// emission is what one applied event handed to emit.
type emission struct {
	i       int
	derived string
	done    time.Time
}

// applyInRuns feeds stream to en in runs of the lengths runLen yields
// (1 goes through Process, the run-of-one wrapper) and returns every
// emission in order. It fails the test if an emission arrives before
// its event was applied or after a later one was.
func applyInRuns(t *testing.T, en *Engine, stream []*event.Event, runLen func() int) []emission {
	t.Helper()
	var log []emission
	var weight uint64 // of the rule-processed events up to the one being emitted
	note := func(i int, derived []*event.Event, done time.Time) {
		if i != len(log) {
			t.Fatalf("emission %d arrived at position %d", i, len(log))
		}
		if e := stream[i]; e.Type != event.TypeRecoveryState && e.Type != event.TypeRecoveryDelta {
			weight += uint64(e.Weight())
		}
		if got := en.State().Processed(); got != weight {
			t.Fatalf("at emission %d the engine has processed weight %d, want %d: emission is not interleaved with application", i, got, weight)
		}
		if got := en.LastProcessed().Sum(); got != uint64(i+1) {
			t.Fatalf("at emission %d the watermark is %d, want %d", i, got, i+1)
		}
		var d string
		for _, de := range derived {
			d += fmt.Sprintf("%s/%d/%d/%d ", de.Type, de.Flight, de.Seq, de.Status)
		}
		log = append(log, emission{i: i, derived: d, done: done})
	}
	for at := 0; at < len(stream); {
		n := runLen()
		if n > len(stream)-at {
			n = len(stream) - at
		}
		if n == 1 {
			derived, done := en.Process(stream[at])
			note(at, derived, done)
		} else {
			base := at
			en.ProcessRun(stream[at:at+n], func(i int, derived []*event.Event, done time.Time) {
				note(base+i, derived, done)
			})
		}
		at += n
	}
	return log
}

func fixedRun(n int) func() int { return func() int { return n } }

// TestProcessRunEquivalence pins the run path to the one-event path:
// the same seeded mixed stream applied one event at a time, in runs of
// 256 and in runs of random length leaves byte-identical state, the
// same derived events in the same order, and the same counters.
func TestProcessRunEquivalence(t *testing.T) {
	stream := mixedStream(t, 21, 20480)
	ref := New(Config{StatePadding: 8})
	want := applyInRuns(t, ref, stream, fixedRun(1))
	derivedSeen := 0
	for _, em := range want {
		if em.derived != "" {
			derivedSeen++
		}
	}
	if derivedSeen < 50 {
		t.Fatalf("stream derived only %d events; the equivalence would be vacuous", derivedSeen)
	}

	rng := rand.New(rand.NewSource(5))
	for name, runLen := range map[string]func() int{
		"runs of 256":    fixedRun(256),
		"random lengths": func() int { return 1 + rng.Intn(300) },
	} {
		en := New(Config{StatePadding: 8})
		got := applyInRuns(t, en, stream, runLen)
		if len(got) != len(want) {
			t.Fatalf("%s: %d emissions, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].derived != want[i].derived {
				t.Fatalf("%s: event %d derived %q, want %q", name, i, got[i].derived, want[i].derived)
			}
		}
		if !bytes.Equal(en.State().Snapshot(), ref.State().Snapshot()) {
			t.Fatalf("%s: snapshot differs from the one-event path", name)
		}
		if got, want := en.State().Processed(), ref.State().Processed(); got != want {
			t.Fatalf("%s: Processed = %d, want %d", name, got, want)
		}
		if got, want := en.LastProcessed(), ref.LastProcessed(); got.Compare(want) != vclock.Equal {
			t.Fatalf("%s: LastProcessed = %v, want %v", name, got, want)
		}
	}
}

// ledgerTrace applies stream under costmodel.Default on a fresh CPU in
// runs of runLen and returns each event's completion instant relative
// to the first one's start, plus the total the ledger advanced. ok is
// false when the host stalled the test for longer than the ledger's
// catch-up window: the ledger then fell behind the wall clock and the
// next charge skipped the idle time, which is the host's doing, not
// the run's.
func ledgerTrace(t *testing.T, stream []*event.Event, runLen int) (offsets []time.Duration, advanced time.Duration, ok bool) {
	t.Helper()
	cpu := &costmodel.CPU{}
	en := New(Config{StatePadding: 8, Model: costmodel.Default, CPU: cpu})
	log := applyInRuns(t, en, stream, fixedRun(runLen))
	start := log[0].done.Add(-costmodel.Default.EventCost(len(stream[0].Payload)))
	ok = true
	prev := start
	for i, em := range log {
		cost := costmodel.Default.EventCost(len(stream[i].Payload))
		switch gap := em.done.Sub(prev); {
		case gap < cost:
			t.Fatalf("runs of %d: event %d completes %v after its predecessor, less than its cost %v", runLen, i, gap, cost)
		case gap > cost:
			ok = false
		}
		offsets = append(offsets, em.done.Sub(start))
		prev = em.done
	}
	return offsets, cpu.BusyUntil().Sub(start), ok
}

// TestProcessRunLedgerEquivalence holds ledger time still: under the
// default cost model a run of 256 books the same total work and gives
// every event the same completion offset as 256 single charges.
func TestProcessRunLedgerEquivalence(t *testing.T) {
	stream := mixedStream(t, 22, 3000)
	var total time.Duration
	for _, e := range stream {
		total += costmodel.Default.EventCost(len(e.Payload))
	}
	for attempt := 1; ; attempt++ {
		one, advancedOne, okOne := ledgerTrace(t, stream, 1)
		run, advancedRun, okRun := ledgerTrace(t, stream, 256)
		if !okOne || !okRun {
			if attempt == 5 {
				t.Fatalf("the ledger skipped idle time in all %d attempts; last advanced %v and %v for %v of work", attempt, advancedOne, advancedRun, total)
			}
			t.Logf("attempt %d: host stalled past the catch-up window, retrying", attempt)
			continue
		}
		if advancedOne != total || advancedRun != total {
			t.Fatalf("ledger advanced %v one at a time and %v in runs of 256, want the %v booked", advancedOne, advancedRun, total)
		}
		for i := range one {
			if one[i] != run[i] {
				t.Fatalf("event %d completes at offset %v in a run of 256, %v one at a time", i, run[i], one[i])
			}
		}
		return
	}
}
