// Quickstart: a central site mirroring a flight-position stream to
// one mirror site, a thin client initializing from the mirror and
// following the update stream.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"adaptmirror"
	"adaptmirror/internal/thinclient"
)

func main() {
	// A thin client (think: airport flight display) buffers the
	// server's update stream until it has initialized.
	display := thinclient.New(0)
	var mu sync.Mutex
	var backlog []*adaptmirror.Event

	// One central site plus one mirror, wired in-process.
	cl, err := adaptmirror.NewCluster(adaptmirror.ClusterConfig{
		Mirrors: 1,
		OnUpdate: func(e *adaptmirror.Event) {
			mu.Lock()
			backlog = append(backlog, e)
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Selective mirroring: of every run of 10 position updates per
	// flight, only one is mirrored (Table-1 set_overwrite).
	cl.Central().InstallSelective(10)

	// Stream 500 position updates for 5 flights.
	seq := uint64(0)
	for i := 0; i < 100; i++ {
		for f := adaptmirror.FlightID(1); f <= 5; f++ {
			seq++
			e := adaptmirror.NewPosition(f, seq, 33.6+float64(i)/100, -84.4, 11000, 512)
			if err := cl.Central().Ingest(e); err != nil {
				log.Fatal(err)
			}
		}
	}
	cl.Drain()

	st := cl.Central().Stats()
	fmt.Printf("events received:  %d\n", st.Received)
	fmt.Printf("events mirrored:  %d (selective mirroring kept 1 in 10)\n", st.Mirrored)
	fmt.Printf("central processed: %d, mirror processed (weighted): %d\n",
		cl.Central().Main().Processed(), cl.Mirrors()[0].Processed())

	// The thin client initializes from the mirror — the central site
	// is never touched — then catches up from the update stream.
	state, err := cl.Targets()[0].RequestInitState()
	if err != nil {
		log.Fatal(err)
	}
	if err := display.Initialize(state.Bytes()); err != nil {
		log.Fatal(err)
	}
	mu.Lock()
	for _, e := range backlog {
		display.Apply(e)
	}
	mu.Unlock()

	fmt.Printf("client initialization state: %d bytes\n", state.Len())
	fs, _ := display.Flight(1)
	fmt.Printf("display now tracks %d flights; flight 1 at %.2f,%.2f\n",
		display.Flights(), fs.Lat, fs.Lon)
}
