// Functional distribution: the paper notes that "update events must
// be mirrored both to sites that replicate local state and to sites
// that need such events for functionally different tasks". This demo
// runs a full replica mirror next to a weather-analytics site whose
// link filters everything but weather reports, while the extended
// business rules (crew, baggage, weather) run at every EDE.
//
//	go run ./examples/functional_distribution
package main

import (
	"fmt"
	"log"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
)

type senderFunc func(*event.Event) error

func (f senderFunc) Submit(e *event.Event) error { return f(e) }

// dataFunc is a direct-call data link into a mirror site's ingest.
type dataFunc func([]*event.Event, event.Ref) error

func (f dataFunc) SubmitOwned(es []*event.Event, ref event.Ref) error { return f(es, ref) }

func main() {
	// Two mirrors: a state replica and a weather-analytics site.
	replica := core.NewMirrorSite(core.MirrorSiteConfig{
		SiteID: 0,
		Main:   core.MainConfig{EDE: ede.Config{Rules: ede.ExtendedRules()}},
	})
	defer replica.Close()
	analytics := core.NewMirrorSite(core.MirrorSiteConfig{
		SiteID: 1,
		Main:   core.MainConfig{EDE: ede.Config{Rules: ede.ExtendedRules()}},
	})
	defer analytics.Close()

	central := core.NewCentral(core.CentralConfig{
		Streams: 2,
		Main:    core.MainConfig{EDE: ede.Config{Rules: ede.ExtendedRules()}},
		Mirrors: []core.MirrorLink{
			{
				Data: dataFunc(replica.HandleOwnedBatch),
				Ctrl: senderFunc(func(e *event.Event) error { replica.HandleControl(e); return nil }),
			},
			{
				Data:   dataFunc(analytics.HandleOwnedBatch),
				Ctrl:   senderFunc(func(e *event.Event) error { analytics.HandleControl(e); return nil }),
				Filter: func(e *event.Event) bool { return e.Type == event.TypeWeather },
			},
		},
	})
	defer central.Close()
	for _, m := range []*core.MirrorSite{replica, analytics} {
		_ = m // control uplinks omitted: the demo focuses on data flow
	}

	// A stormy operational hour: positions, crew and baggage updates,
	// and weather reports of rising severity.
	var seq uint64
	next := func() uint64 { seq++; return seq }
	for round := 0; round < 50; round++ {
		for f := event.FlightID(1); f <= 8; f++ {
			if err := central.Ingest(event.NewPosition(f, next(), 33+float64(round)/10, -84, 31000, 512)); err != nil {
				log.Fatal(err)
			}
		}
		f := event.FlightID(1 + round%8)
		central.Ingest(ede.NewCrewUpdate(f, next(), 6, 1, 64))
		central.Ingest(ede.NewBaggage(f, next(), 128))
		severity := uint8(100 + round*3) // worsening storm
		central.Ingest(ede.NewWeather(f, next(), severity, 256))
	}
	central.Drain()
	// Let the mirrors' pipelines finish.
	for replica.Received() < central.Stats().Mirrored {
		time.Sleep(time.Millisecond)
	}
	replica.Drain()
	analytics.Drain()

	st := central.Stats()
	fmt.Printf("central received %d events\n", st.Received)
	fmt.Printf("replica received:   %4d events (everything)\n", replica.Received())
	fmt.Printf("analytics received: %4d events (weather only — %.0f%% less traffic)\n",
		analytics.Received(), 100*(1-float64(analytics.Received())/float64(replica.Received())))

	// The analytics site's extended state has the storm picture.
	var severe int
	for f := event.FlightID(1); f <= 8; f++ {
		if ws, ok := analytics.Main().Engine().State().Weather(f); ok && ws.Severity >= ede.WeatherSevere {
			severe++
		}
	}
	fmt.Printf("analytics site: %d/8 routes at severe weather (≥%d)\n", severe, ede.WeatherSevere)

	// The replica has the operational state (crew readiness).
	ready := 0
	for f := event.FlightID(1); f <= 8; f++ {
		if cs, ok := replica.Main().Engine().State().Crew(f); ok && cs.Complete {
			ready++
		}
	}
	fmt.Printf("replica site: %d/8 flights with complete crews\n", ready)
}
