package adaptmirror

import (
	"sync"
	"testing"
	"time"

	"adaptmirror/internal/thinclient"
)

// The façade tests use a light cost model so they run in milliseconds.
var testModel = CostModel{
	EventBase:      2 * time.Microsecond,
	SerializeBase:  500 * time.Nanosecond,
	SubmitBase:     200 * time.Nanosecond,
	RequestBase:    5 * time.Microsecond,
	CheckpointBase: time.Microsecond,
}

func TestQuickstartFlow(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Mirrors: 2, Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.Central().InstallSelective(10)
	for i := uint64(1); i <= 100; i++ {
		if err := cl.Central().Ingest(NewPosition(FlightID(1+i%5), i, 33.6, -84.4, 11000, 256)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Drain()

	if got := cl.Central().Main().Processed(); got != 100 {
		t.Fatalf("central processed %d, want 100", got)
	}
	state, err := cl.Targets()[0].RequestInitState()
	if err != nil {
		t.Fatal(err)
	}
	if state.Len() == 0 {
		t.Fatal("empty init state")
	}
}

func TestClusterAccessors(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Mirrors: 3, Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if len(cl.Mirrors()) != 3 {
		t.Fatalf("Mirrors = %d", len(cl.Mirrors()))
	}
	if len(cl.Targets()) != 3 {
		t.Fatalf("Targets = %d", len(cl.Targets()))
	}
	if len(cl.AllTargets()) != 4 {
		t.Fatalf("AllTargets = %d", len(cl.AllTargets()))
	}
}

func TestNoMirrorBaseline(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{NoMirror: true, Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if len(cl.Targets()) != 1 {
		t.Fatal("baseline must serve requests from the central site")
	}
	cl.Feed([]*Event{NewStatus(1, 1, StatusLanded, 64)})
	cl.Drain()
	if cl.Central().Stats().Mirrored != 0 {
		t.Fatal("baseline mirrored events")
	}
}

func TestComplexRulesViaFacade(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Mirrors: 1, Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Central().SetComplexSeq(TypeDeltaStatus, StatusLanded, TypeFAAPosition)
	cl.Central().SetComplexTuple([]Status{StatusLanded, StatusAtRunway, StatusAtGate}, TypeFlightArrived)

	var seq uint64
	next := func() uint64 { seq++; return seq }
	cl.Central().Ingest(NewStatus(7, next(), StatusLanded, 32))
	cl.Central().Ingest(NewPosition(7, next(), 0, 0, 0, 64)) // discarded by seq rule
	cl.Central().Ingest(NewStatus(7, next(), StatusAtRunway, 32))
	cl.Central().Ingest(NewStatus(7, next(), StatusAtGate, 32))
	cl.Drain()

	st := cl.Central().Stats()
	// Only the collapsed flight-arrived event survives mirroring.
	if st.Mirrored != 1 {
		t.Fatalf("Mirrored = %d, want 1 (the complex event)", st.Mirrored)
	}
}

func TestNewAdaptationInstallsBaseline(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Mirrors: 1, Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	base := Regime{ID: 1, Coalesce: true, MaxCoalesce: 10, OverwriteLen: 10, CheckpointFreq: 25}
	degr := Regime{ID: 2, Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 50}
	ctl := cl.NewAdaptation(base, degr, 100, 50)
	if ctl.Engaged() {
		t.Fatal("controller must start in the baseline regime")
	}
	p := cl.Central().GetParams()
	if !p.Coalesce || p.MaxCoalesce != 10 || p.CheckpointFreq != 25 {
		t.Fatalf("baseline regime not installed: %+v", p)
	}
}

func TestTCPTransportViaFacade(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Mirrors:   1,
		Transport: TransportTCP,
		Bandwidth: 100e6,
		Latency:   20 * time.Microsecond,
		Model:     testModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(1); i <= 20; i++ {
		cl.Central().Ingest(NewPosition(1, i, 1, 2, 3, 128))
	}
	cl.Drain()
	if got := cl.Mirrors()[0].Processed(); got != 20 {
		t.Fatalf("mirror processed %d over TCP, want 20", got)
	}
}

func TestOnUpdateStreamDrivesThinClient(t *testing.T) {
	v := thinclient.New(0)
	var mu sync.Mutex
	var buffered []*Event
	cl, err := NewCluster(ClusterConfig{
		Mirrors: 1,
		Model:   testModel,
		OnUpdate: func(e *Event) {
			mu.Lock()
			buffered = append(buffered, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := uint64(1); i <= 40; i++ {
		cl.Central().Ingest(NewPosition(FlightID(1+i%3), i, float64(i), -float64(i), 9000, 64))
	}
	cl.Central().Ingest(NewStatus(1, 41, StatusAtGate, 32))
	cl.Drain()

	// Initialize the client from a mirror snapshot, then apply the
	// buffered update stream (stale prefixes are skipped by VT).
	snap, err := cl.Targets()[0].RequestInitState()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Initialize(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, e := range buffered {
		v.Apply(e)
	}
	mu.Unlock()

	server, _ := cl.Central().Main().Engine().State().Get(1)
	client, ok := v.Flight(1)
	if !ok {
		t.Fatal("client missing flight 1")
	}
	if client.Status != server.Status || client.Lat != server.Lat {
		t.Fatalf("client view diverged: %+v vs %+v", client, server)
	}
	if !client.Arrived {
		t.Fatal("client missed the derived arrival")
	}
}
