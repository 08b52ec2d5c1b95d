package main

import (
	"math/rand"

	"adaptmirror/internal/event"
)

// Stream indices: the vector-timestamp components of the two sources.
const (
	streamFAA   = 0
	streamDelta = 1
)

// statusEvery makes every 11th event a Delta status: FAA positions to
// Delta statuses run 10:1, exactly.
const statusEvery = 11

// Statuses stay below 'landed': the complex-sequence rule would
// otherwise discard every later position of a landed flight and the
// mirrored share of the stream would drift over the run.
var liveStatuses = []event.Status{
	event.StatusScheduled, event.StatusBoarding, event.StatusBoarded,
	event.StatusDeparted, event.StatusEnRoute,
}

// phase is one run of generator output, kept so the reference pass can
// regenerate the exact sequence the cluster was fed.
type phase struct {
	populate bool // one position per flight, in flight order
	hot      int  // flights drawn from (0 = all)
	n        int
}

// generator produces the seeded input stream. The same seed gives the
// same flights, statuses and positions in the same order whatever the
// payload sizes are — sizes pad payloads, they draw nothing.
type generator struct {
	seed       int64
	rng        *rand.Rand
	flights    int
	hot        int
	posSize    int
	statusSize int
	seq        [2]uint64
	n          uint64
	phases     []phase
}

func newGenerator(seed int64, flights, posSize, statusSize int) *generator {
	return &generator{
		seed:       seed,
		rng:        rand.New(rand.NewSource(seed)),
		flights:    flights,
		posSize:    posSize,
		statusSize: statusSize,
	}
}

func (g *generator) note(populate bool) {
	if k := len(g.phases); k > 0 && g.phases[k-1].populate == populate && g.phases[k-1].hot == g.hot {
		g.phases[k-1].n++
		return
	}
	g.phases = append(g.phases, phase{populate: populate, hot: g.hot, n: 1})
}

func (g *generator) position(f event.FlightID) *event.Event {
	g.seq[streamFAA]++
	lat := g.rng.Float64()*180 - 90
	lon := g.rng.Float64()*360 - 180
	alt := g.rng.Float64() * 12000
	e := event.NewPosition(f, g.seq[streamFAA], lat, lon, alt, g.posSize)
	e.Stream = streamFAA
	return e
}

// populateNext returns the position that creates flight i (1-based).
func (g *generator) populateNext(i int) *event.Event {
	g.note(true)
	g.n++
	return g.position(event.FlightID(i))
}

// next returns the next stream event: a position, or every
// statusEvery-th time a status, for a flight drawn from the hot set.
func (g *generator) next() *event.Event {
	g.note(false)
	g.n++
	pop := g.flights
	if g.hot > 0 && g.hot < pop {
		pop = g.hot
	}
	f := event.FlightID(g.rng.Intn(pop) + 1)
	if g.n%statusEvery != 0 {
		return g.position(f)
	}
	g.seq[streamDelta]++
	st := liveStatuses[g.rng.Intn(len(liveStatuses))]
	e := event.NewStatus(f, g.seq[streamDelta], st, g.statusSize)
	e.Stream = streamDelta
	return e
}

// replay regenerates the sequence described by phases on a fresh
// generator with the same seed, handing each event to fn.
func (g *generator) replay(phases []phase, fn func(*event.Event)) {
	for _, p := range phases {
		g.hot = p.hot
		for i := 0; i < p.n; i++ {
			if p.populate {
				fn(g.populateNext(i + 1))
			} else {
				fn(g.next())
			}
		}
	}
}
