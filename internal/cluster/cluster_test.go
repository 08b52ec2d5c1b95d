package cluster

import (
	"bytes"
	"testing"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/simnet"
)

// lightModel keeps harness tests fast while still exercising the
// virtual CPUs.
var lightModel = costmodel.Model{
	EventBase:      2 * time.Microsecond,
	SerializeBase:  500 * time.Nanosecond,
	SubmitBase:     200 * time.Nanosecond,
	RequestBase:    5 * time.Microsecond,
	CheckpointBase: time.Microsecond,
	ControlCost:    200 * time.Nanosecond,
}

func runOn(t *testing.T, tr Transport) {
	t.Helper()
	cl, err := New(Config{Mirrors: 2, Transport: tr, Model: lightModel})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	events := BuildEvents(Options{Flights: 4, UpdatesPerFlight: 25, EventSize: 128, Seed: 1})
	if err := cl.Feed(events); err != nil {
		t.Fatal(err)
	}
	cl.DrainAll()

	st := cl.Central.Stats()
	if st.Received != 100 {
		t.Fatalf("Received = %d, want 100", st.Received)
	}
	if st.Mirrored != 100 {
		t.Fatalf("Mirrored = %d, want 100", st.Mirrored)
	}
	for i, m := range cl.Mirrors {
		if m.Processed() != 100 {
			t.Fatalf("mirror %d processed %d, want 100", i, m.Processed())
		}
	}
	if cl.Updates.Value() != 100 {
		t.Fatalf("Updates = %d, want 100", cl.Updates.Value())
	}
	if cl.DelayHist.Count() != 100 {
		t.Fatalf("delay samples = %d, want 100", cl.DelayHist.Count())
	}
	// Same events, same order, same applied state: every replica is
	// byte-for-byte the central's.
	central := cl.Central.Main().Engine().State().Snapshot()
	if len(central) == 0 {
		t.Fatal("central snapshot is empty; convergence check is vacuous")
	}
	for i, m := range cl.Mirrors {
		if got := m.Main().Engine().State().Snapshot(); !bytes.Equal(got, central) {
			t.Fatalf("mirror %d state diverged from central (%d vs %d bytes)", i, len(got), len(central))
		}
	}
}

func TestClusterDirect(t *testing.T) { runOn(t, TransportDirect) }
func TestClusterTCP(t *testing.T)    { runOn(t, TransportTCP) }

func TestClusterTCPShaped(t *testing.T) {
	cl, err := New(Config{
		Mirrors:   1,
		Transport: TransportTCP,
		Shaping:   simnet.Profile{Bandwidth: 50e6, Latency: 50 * time.Microsecond},
		Model:     lightModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	events := BuildEvents(Options{Flights: 2, UpdatesPerFlight: 10, EventSize: 512, Seed: 2})
	if err := cl.Feed(events); err != nil {
		t.Fatal(err)
	}
	cl.DrainAll()
	if got := cl.Mirrors[0].Processed(); got != 20 {
		t.Fatalf("mirror processed %d, want 20", got)
	}
}

func TestTargetsFallBackToCentral(t *testing.T) {
	cl, err := New(Config{Mirrors: 0, Model: lightModel, NoMirror: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	targets := cl.Targets()
	if len(targets) != 1 || targets[0] != cl.Central.Main() {
		t.Fatal("with no mirrors, the central main unit must serve requests")
	}
}

func TestTransportString(t *testing.T) {
	for tr, want := range map[Transport]string{
		TransportDirect: "direct",
		TransportTCP:    "tcp",
		Transport(9):    "transport(9)",
	} {
		if got := tr.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", tr, got, want)
		}
	}
}

func TestUnknownTransport(t *testing.T) {
	if _, err := New(Config{Transport: Transport(42)}); err == nil {
		t.Fatal("unknown transport must fail")
	}
}

func TestBuildEventsFAAOnly(t *testing.T) {
	events := BuildEvents(Options{Flights: 3, UpdatesPerFlight: 10, Seed: 1})
	if len(events) != 30 {
		t.Fatalf("events = %d, want 30", len(events))
	}
	for _, e := range events {
		if e.Type != event.TypeFAAPosition {
			t.Fatalf("unexpected type %s", e.Type)
		}
	}
}

func TestBuildEventsWithDelta(t *testing.T) {
	events := BuildEvents(Options{
		Flights: 3, UpdatesPerFlight: 30, WithDelta: true, Passengers: 2, Seed: 1,
	})
	wantFAA, wantDelta := 90, 3*(8+2)
	var faaN, deltaN int
	for _, e := range events {
		switch {
		case e.Type == event.TypeFAAPosition:
			faaN++
		default:
			deltaN++
		}
	}
	if faaN != wantFAA || deltaN != wantDelta {
		t.Fatalf("faa=%d delta=%d, want %d/%d", faaN, deltaN, wantFAA, wantDelta)
	}
	// Streams are distinct for vector timestamps.
	for _, e := range events {
		if e.Type == event.TypeFAAPosition && e.Stream != 0 {
			t.Fatal("FAA events must be stream 0")
		}
		if e.Type != event.TypeFAAPosition && e.Stream != 1 {
			t.Fatal("Delta events must be stream 1")
		}
	}
}

func TestRunExperimentBasic(t *testing.T) {
	res, err := RunExperiment(Options{
		Mirrors: 1, Flights: 4, UpdatesPerFlight: 25, EventSize: 128,
		Model: lightModel, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("TotalTime must be positive")
	}
	if res.Central.Received != 100 {
		t.Fatalf("Received = %d, want 100", res.Central.Received)
	}
	if res.MeanDelay < 0 {
		t.Fatal("MeanDelay must not be negative")
	}
}

func TestRunExperimentWithRequests(t *testing.T) {
	res, err := RunExperiment(Options{
		Mirrors: 2, Flights: 4, UpdatesPerFlight: 25, EventSize: 128,
		RequestRate: 2000, TotalRequests: 40,
		Model: lightModel, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests.Completed != 40 {
		t.Fatalf("Completed = %d, want 40", res.Requests.Completed)
	}
}

func TestRunExperimentSelectiveMirrorsLess(t *testing.T) {
	base := Options{
		Mirrors: 1, Flights: 2, UpdatesPerFlight: 50, EventSize: 128,
		Model: lightModel, Seed: 5,
	}
	simple, err := RunExperiment(base)
	if err != nil {
		t.Fatal(err)
	}
	sel := base
	sel.Selective = 10
	selective, err := RunExperiment(sel)
	if err != nil {
		t.Fatal(err)
	}
	if selective.Central.Mirrored >= simple.Central.Mirrored {
		t.Fatalf("selective mirrored %d >= simple %d", selective.Central.Mirrored, simple.Central.Mirrored)
	}
}

func TestRunExperimentNoMirrorBaseline(t *testing.T) {
	res, err := RunExperiment(Options{
		NoMirror: true, Flights: 2, UpdatesPerFlight: 10, EventSize: 64,
		Model: lightModel, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Central.Mirrored != 0 {
		t.Fatalf("Mirrored = %d, want 0", res.Central.Mirrored)
	}
}

func TestRunExperimentAdaptive(t *testing.T) {
	// Pace the event stream across the request run so checkpoint
	// rounds (the sampling instants) see the request backlog: requests
	// arrive far faster than the 300µs service time, so the pending
	// buffer is deep for most of the run.
	model := lightModel
	model.RequestBase = 300 * time.Microsecond
	res, err := RunExperiment(Options{
		Mirrors: 1, Flights: 4, UpdatesPerFlight: 50, EventSize: 64,
		EventRate: 5000,
		Adaptive:  true,
		Baseline:  adapt.Regime{ID: 1, Coalesce: true, MaxCoalesce: 10, OverwriteLen: 10, CheckpointFreq: 10},
		Degraded:  adapt.Regime{ID: 2, Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 20},
		// Threshold of 1 pending request: trivially engaged by load.
		PendingPrimary: 1, PendingSecondary: 1,
		RequestRate: 1e6, TotalRequests: 100,
		Model: model, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engages == 0 {
		t.Fatal("adaptation never engaged despite saturating thresholds")
	}
}

func TestRunExperimentSeries(t *testing.T) {
	res, err := RunExperiment(Options{
		Mirrors: 1, Flights: 2, UpdatesPerFlight: 40, EventSize: 64,
		EventRate: 2000, SeriesBin: 10 * time.Millisecond,
		Model: lightModel, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DelayBins) == 0 {
		t.Fatal("no delay bins recorded")
	}
}

func TestFeedPacedHonorsStop(t *testing.T) {
	cl, err := New(Config{Mirrors: 0, Model: lightModel, NoMirror: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	events := BuildEvents(Options{Flights: 1, UpdatesPerFlight: 10000, Seed: 9})
	stop := make(chan struct{})
	close(stop)
	if err := cl.FeedPaced(events, 100, stop); err != nil {
		t.Fatal(err)
	}
	cl.DrainAll()
	if got := cl.Central.Stats().Received; got >= 10000 {
		t.Fatalf("stop ignored: received %d", got)
	}
}

func TestFeedAfterDrainErrors(t *testing.T) {
	cl, err := New(Config{Mirrors: 0, Model: lightModel, NoMirror: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.DrainAll()
	if err := cl.Feed([]*event.Event{event.NewPosition(1, 1, 0, 0, 0, 32)}); err == nil {
		t.Fatal("feeding after drain must fail")
	}
}

func TestVirtualParallelismSpeedsUpRequests(t *testing.T) {
	// The core claim of mirroring: the same request volume completes
	// faster when spread over more mirror CPUs. 200 requests at 20µs
	// each = 4ms of work on one node vs 1ms spread over four.
	opts := Options{
		Flights: 1, UpdatesPerFlight: 1, EventSize: 0,
		RequestRate: 1e9, TotalRequests: 400,
		Model: costmodel.Model{
			EventBase:   time.Microsecond,
			RequestBase: 300 * time.Microsecond,
		},
		Seed: 10,
	}
	one := opts
	one.Mirrors = 1
	r1, err := RunExperiment(one)
	if err != nil {
		t.Fatal(err)
	}
	four := opts
	four.Mirrors = 4
	r4, err := RunExperiment(four)
	if err != nil {
		t.Fatal(err)
	}
	if r4.TotalTime >= r1.TotalTime {
		t.Fatalf("4 mirrors (%v) not faster than 1 (%v) under pure request load",
			r4.TotalTime, r1.TotalTime)
	}
}
