// Airline OIS: the paper's motivating scenario end to end. A central
// site ingests interleaved FAA radar and Delta lifecycle streams,
// applies the full set of semantic mirroring rules, replicates to two
// mirror sites, and then an airport terminal "comes back from a power
// failure": hundreds of thin clients simultaneously re-request their
// initialization state, served entirely by the mirrors while the
// central site keeps processing the event streams.
//
//	go run ./examples/airline_ois
package main

import (
	"fmt"
	"log"
	"time"

	"adaptmirror"
	"adaptmirror/internal/cluster"
	"adaptmirror/internal/loadbal"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/workload"
)

func main() {
	cl, err := adaptmirror.NewCluster(adaptmirror.ClusterConfig{
		Mirrors:      2,
		StatePadding: 128, // richer per-flight operational state
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// The paper's semantic rules:
	// - overwrite: mirror 1 of every 10 FAA positions per flight;
	// - complex sequence: discard FAA positions after 'flight landed';
	// - complex tuple: collapse landed + at-runway + at-gate into one
	//   'flight arrived' event.
	central := cl.Central()
	central.InstallSelective(10)
	central.SetComplexSeq(adaptmirror.TypeDeltaStatus, adaptmirror.StatusLanded, adaptmirror.TypeFAAPosition)
	central.SetComplexTuple(
		[]adaptmirror.Status{adaptmirror.StatusLanded, adaptmirror.StatusAtRunway, adaptmirror.StatusAtGate},
		adaptmirror.TypeFlightArrived)

	// Build an operational day: 40 flights, positions plus lifecycle
	// (boarding, gate readers, departure, arrival).
	events := cluster.BuildEvents(cluster.Options{
		Flights:          40,
		UpdatesPerFlight: 60,
		EventSize:        1024,
		WithDelta:        true,
		Passengers:       25,
		Seed:             7,
	})
	fmt.Printf("streaming %d operational events (FAA + Delta)...\n", len(events))
	if err := cl.Feed(events); err != nil {
		log.Fatal(err)
	}

	// While events stream, the power failure hits: 400 airport
	// displays re-request initialization state simultaneously,
	// balanced across the mirror sites only.
	bal, _ := loadbal.NewRoundRobin(len(cl.Targets()))
	lat := new(metrics.Histogram)
	start := time.Now()
	served, burstTime := workload.Burst(cl.Targets(), bal, 400, lat)
	fmt.Printf("power-failure recovery: %d/%d thin clients re-initialized in %v\n",
		served, 400, burstTime.Round(time.Millisecond))
	fmt.Printf("init-state latency: %s\n", lat.Summary())

	cl.Drain()
	fmt.Printf("event stream fully processed %v after the burst began\n",
		time.Since(start).Round(time.Millisecond))

	// Inspect the replicated operational state.
	st := central.Stats()
	discarded, combined := central.Semantics().Stats()
	fmt.Printf("\nmirroring summary:\n")
	fmt.Printf("  received %d, mirrored %d (%.0f%% traffic reduction)\n",
		st.Received, st.Mirrored, 100*(1-float64(st.Mirrored)/float64(st.Received)))
	fmt.Printf("  discarded by rules: %d, combined into complex events: %d\n", discarded, combined)
	fmt.Printf("  checkpoint rounds: %d, commits: %d\n", st.ChkptRounds, st.ChkptCommits)

	// Every mirror tracked every flight's arrival.
	arrived := 0
	for f := adaptmirror.FlightID(1); f <= 40; f++ {
		if fs, ok := cl.Mirrors()[0].Main().Engine().State().Get(f); ok && fs.Status == adaptmirror.StatusArrived {
			arrived++
		}
	}
	fmt.Printf("  mirror 0 sees %d/40 flights arrived\n", arrived)
}
