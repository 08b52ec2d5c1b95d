package cluster

import (
	"runtime"
	"testing"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/workload"
)

// TestNoGoroutineLeaks builds and tears down clusters over every
// transport and verifies the goroutine count returns to baseline —
// sites, subscriptions, servers, and links must all shut down.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, tr := range []Transport{TransportDirect, TransportTCP} {
		for i := 0; i < 3; i++ {
			cl, err := New(Config{Mirrors: 2, Transport: tr, Model: lightModel})
			if err != nil {
				t.Fatal(err)
			}
			events := BuildEvents(Options{Flights: 3, UpdatesPerFlight: 10, Seed: int64(i)})
			if err := cl.Feed(events); err != nil {
				t.Fatal(err)
			}
			cl.DrainAll()
			cl.Close()
		}
	}
	// Allow stragglers (TCP teardown, test runtime helpers) to exit.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: baseline %d, now %d — leak", baseline, runtime.NumGoroutine())
}

// TestSoakMixedLoad runs a sustained mixed workload — paced events,
// constant requests, adaptation, checkpointing — and verifies the
// system stays live and consistent throughout. Skipped with -short.
func TestSoakMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cl, err := New(Config{
		Mirrors: 2,
		Model:   lightModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Central.InstallSelective(10)
	cl.Central.SetParams(true, 10, 25)

	stop := make(chan struct{})
	reqDone := make(chan workload.Result, 1)
	go func() {
		reqDone <- workload.Run(workload.Config{
			Pattern: workload.Bursty{Base: 500, Burst: 5000, Period: 400 * time.Millisecond, BurstLen: 100 * time.Millisecond},
			Targets: cl.AllTargets(),
			Stop:    stop,
		})
	}()

	events := BuildEvents(Options{
		Flights: 20, UpdatesPerFlight: 250, EventSize: 512,
		WithDelta: true, Passengers: 10, Seed: 42,
	})
	if err := cl.FeedPaced(events, 3000, nil); err != nil {
		t.Fatal(err)
	}
	cl.DrainAll()
	close(stop)
	res := <-reqDone

	st := cl.Central.Stats()
	if st.Received != uint64(len(events)) {
		t.Fatalf("received %d of %d", st.Received, len(events))
	}
	if st.ChkptCommits == 0 {
		t.Fatal("no checkpoint commits during soak")
	}
	if res.Completed == 0 {
		t.Fatal("no requests served during soak")
	}
	// Replica states converge on every flight's terminal status.
	for f := 1; f <= 20; f++ {
		cf, ok := cl.Central.Main().Engine().State().Get(event.FlightID(f))
		if !ok {
			t.Fatalf("central missing flight %d", f)
		}
		for i, m := range cl.Mirrors {
			mf, ok := m.Main().Engine().State().Get(event.FlightID(f))
			if !ok {
				t.Fatalf("mirror %d missing flight %d", i, f)
			}
			if mf.Status != cf.Status {
				t.Fatalf("mirror %d flight %d status %s, central %s", i, f, mf.Status, cf.Status)
			}
		}
	}
}
