package linktelem

import (
	"strings"
	"testing"
	"time"

	"adaptmirror/internal/obs"
)

func TestTickEWMASeedsAndSmooths(t *testing.T) {
	s := New(1)
	t0 := time.Unix(1000, 0)

	// First tick seeds the EWMAs with the raw first-window deltas.
	s.Tick(t0, []Sample{{Bytes: 1000, Events: 10, Stall: time.Millisecond}})
	l := s.Links()[0]
	if l.BytesPerRound != 1000 || l.EventsPerRound != 10 {
		t.Fatalf("first tick = %+v, want raw seed 1000/10", l)
	}
	if l.StallPerRound != time.Millisecond {
		t.Fatalf("StallPerRound = %v, want 1ms", l.StallPerRound)
	}

	// Second tick: delta 2000 bytes, EWMA(0.5) = 1000 + 0.5*(2000-1000).
	s.Tick(t0.Add(time.Second), []Sample{{Bytes: 3000, Events: 30, Stall: time.Millisecond}})
	l = s.Links()[0]
	if l.BytesPerRound != 1500 {
		t.Fatalf("BytesPerRound = %v, want 1500", l.BytesPerRound)
	}
	if l.EventsPerRound != 15 {
		t.Fatalf("EventsPerRound = %v, want 15", l.EventsPerRound)
	}
	if l.StallPerRound != time.Millisecond/2 {
		t.Fatalf("StallPerRound = %v, want 0.5ms", l.StallPerRound)
	}
	// Bandwidth seeds on the first elapsed window: 2000 B over 1 s.
	if l.BandwidthBps != 2000 {
		t.Fatalf("BandwidthBps = %v, want 2000", l.BandwidthBps)
	}
}

func TestMonitoredVariableViews(t *testing.T) {
	s := New(2)
	now := time.Unix(1000, 0)
	s.Tick(now, []Sample{
		{Bytes: 500, MaxDepth: 3},
		{Bytes: 2500, MaxDepth: 9},
	})
	if got := s.MaxBytesPerRound(); got != 2500 {
		t.Fatalf("MaxBytesPerRound = %d, want 2500 (busiest link)", got)
	}
	if got := s.MaxOutboxDepth(); got != 9 {
		t.Fatalf("MaxOutboxDepth = %d, want 9 (deepest window)", got)
	}
	// The windowed high-water mark follows each tick's Sample: a calmer
	// next window lowers it (no sticky all-time max).
	s.Tick(now.Add(time.Second), []Sample{
		{Bytes: 600, MaxDepth: 1},
		{Bytes: 2600, MaxDepth: 2},
	})
	if got := s.MaxOutboxDepth(); got != 2 {
		t.Fatalf("MaxOutboxDepth after calm window = %d, want 2", got)
	}
}

func TestTickIgnoresExtraSamples(t *testing.T) {
	s := New(1)
	now := time.Unix(1000, 0)
	// Samples beyond the tracked link count are ignored, not a panic.
	s.Tick(now, []Sample{{Bytes: 100}, {Bytes: 999}})
	s.Tick(now.Add(time.Second), []Sample{{Bytes: 300}})
	if got := s.Links()[0].BytesPerRound; got != 150 {
		t.Fatalf("BytesPerRound = %v, want EWMA(0.5) of 100 then 200 = 150", got)
	}
}

func TestRegisterExportsPerLinkSeries(t *testing.T) {
	r := obs.NewRegistry()
	s := New(2)
	s.Tick(time.Unix(1000, 0), []Sample{{Bytes: 100, Events: 2}, {Bytes: 700, Events: 9}})
	s.Register(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`link_wire_bytes_per_round{mirror="0"} 100`,
		`link_wire_bytes_per_round{mirror="1"} 700`,
		`link_wire_events_per_round{mirror="1"} 9`,
		`link_est_bandwidth_bytes_per_second{mirror="0"}`,
		`link_stall_seconds_per_round{mirror="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Register on a nil registry must be a no-op, not a panic.
	s.Register(nil)
}

// TestPrimeBaselinesInheritedCounters covers the promotion path: a
// promoted central re-registers the old central's cumulative per-link
// series, so its fresh Sampler must be primed with the inherited
// totals or the first tick would read the whole history as one round's
// delta and poison the EWMAs the adaptation controller feeds on.
func TestPrimeBaselinesInheritedCounters(t *testing.T) {
	s := New(1)
	t0 := time.Unix(2000, 0)
	s.Prime(t0, []Sample{{Bytes: 1_000_000, Events: 5000, Stall: time.Second}})

	l := s.Links()[0]
	if l.BytesPerRound != 0 || l.EventsPerRound != 0 {
		t.Fatalf("Prime moved the EWMAs: %+v", l)
	}

	// Prime consumes no telemetry window: the next tick still seeds,
	// from the true post-promotion window, not the inherited total.
	s.Tick(t0.Add(time.Second), []Sample{{Bytes: 1_000_500, Events: 5010, Stall: time.Second + time.Millisecond}})
	l = s.Links()[0]
	if l.BytesPerRound != 500 || l.EventsPerRound != 10 {
		t.Fatalf("first post-Prime tick = %+v, want window deltas 500/10", l)
	}
	if l.StallPerRound != time.Millisecond {
		t.Fatalf("StallPerRound = %v, want 1ms", l.StallPerRound)
	}
	// Bandwidth likewise: 500 B over the 1 s since Prime.
	if l.BandwidthBps != 500 {
		t.Fatalf("BandwidthBps = %v, want 500", l.BandwidthBps)
	}

	// Extra samples beyond the tracked link count are ignored, same as
	// Tick.
	s.Prime(t0, []Sample{{Bytes: 1}, {Bytes: 2}})
}
