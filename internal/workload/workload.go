// Package workload generates client request load against mirror
// sites, standing in for the paper's httperf-driven client machines.
// Requests are issued open-loop (arrival times do not depend on
// completion times, like httperf's fixed-rate mode) following a rate
// pattern: constant, Poisson-jittered, bursty on/off, or a
// power-failure spike (the paper's motivating scenario of an airport
// terminal's thin clients all requesting initialization state at
// once).
package workload

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/loadbal"
	"adaptmirror/internal/metrics"
)

// Pattern yields the offered request rate in requests/second as a
// function of elapsed time.
type Pattern interface {
	// Rate returns the instantaneous offered rate at the given
	// elapsed time; 0 means idle.
	Rate(elapsed time.Duration) float64
}

// Constant offers a fixed rate.
type Constant struct{ RPS float64 }

// Rate implements Pattern.
func (c Constant) Rate(time.Duration) float64 { return c.RPS }

// Bursty alternates between a base and a burst rate: each Period, the
// first BurstLen runs at Burst RPS, the remainder at Base RPS. This is
// the "bursty clients requests pattern" of the Figure 9 experiment.
type Bursty struct {
	Base, Burst float64
	Period      time.Duration
	BurstLen    time.Duration
}

// Rate implements Pattern.
func (b Bursty) Rate(elapsed time.Duration) float64 {
	if b.Period <= 0 {
		return b.Base
	}
	into := elapsed % b.Period
	if into < b.BurstLen {
		return b.Burst
	}
	return b.Base
}

// Spike models a power-failure recovery: Base RPS, with a single
// burst of Extra RPS during [At, At+Len) while a terminal's thin
// clients re-request initialization state.
type Spike struct {
	Base, Extra float64
	At, Len     time.Duration
}

// Rate implements Pattern.
func (s Spike) Rate(elapsed time.Duration) float64 {
	if elapsed >= s.At && elapsed < s.At+s.Len {
		return s.Base + s.Extra
	}
	return s.Base
}

// Config parameterizes a load run.
type Config struct {
	// Pattern is the offered-rate schedule.
	Pattern Pattern
	// Targets are the mirror main units serving requests.
	Targets []*core.MainUnit
	// Balancer spreads requests over Targets (nil = round robin).
	Balancer loadbal.Balancer
	// TotalRequests stops the run after issuing this many requests
	// (0 = run until Duration or Stop).
	TotalRequests int
	// Duration stops the run after this much time (0 = until
	// TotalRequests or Stop).
	Duration time.Duration
	// Stop, when non-nil, aborts the run when closed.
	Stop <-chan struct{}
	// Latency, when non-nil, records request round-trip times.
	Latency *metrics.Histogram
	// Poisson jitters inter-arrival times exponentially instead of
	// using a deterministic rate.
	Poisson bool
	// Seed drives the Poisson jitter.
	Seed int64
}

// Result summarizes a load run.
type Result struct {
	Issued    uint64 // requests dispatched
	Completed uint64 // responses received
	Rejected  uint64 // requests refused (buffer full or unit closed)
	Elapsed   time.Duration
}

// Run issues requests per the configuration and blocks until every
// dispatched request has completed (or failed). It panics if no
// targets are configured.
func Run(cfg Config) Result {
	if len(cfg.Targets) == 0 {
		panic("workload: no targets")
	}
	bal := cfg.Balancer
	if bal == nil {
		bal, _ = loadbal.NewRoundRobin(len(cfg.Targets))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var issued, completed, rejected atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()

	dispatch := func() {
		target := cfg.Targets[bal.Pick()%len(cfg.Targets)]
		req := &core.InitRequest{Resp: make(chan ede.Snapshot, 1)}
		sentAt := time.Now()
		if err := target.Request(req); err != nil {
			rejected.Add(1)
			return
		}
		issued.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := <-req.Resp; !ok {
				return
			}
			completed.Add(1)
			if cfg.Latency != nil {
				cfg.Latency.Record(time.Since(sentAt))
			}
		}()
	}

	// The generator accumulates request "debt" as the integral of the
	// offered rate over elapsed time and dispatches the whole batch
	// due at each wake-up. This keeps offered load accurate at rates
	// far above the host's sleep granularity (tens of thousands of
	// requests per second paced with ~1ms sleeps).
	n := 0
	last := start
	var due float64
	for {
		now := time.Now()
		elapsed := now.Sub(start)
		if cfg.Duration > 0 && elapsed >= cfg.Duration {
			break
		}
		if cfg.TotalRequests > 0 && n >= cfg.TotalRequests {
			break
		}
		if stopped(cfg.Stop) {
			break
		}
		due += cfg.Pattern.Rate(elapsed) * now.Sub(last).Seconds()
		last = now
		for due >= 1 {
			if cfg.TotalRequests > 0 && n >= cfg.TotalRequests {
				due = 0
				break
			}
			dispatch()
			n++
			due--
		}
		pause := time.Millisecond
		if cfg.Poisson {
			pause = time.Duration(rng.ExpFloat64() * float64(pause))
		}
		time.Sleep(pause)
	}
	wg.Wait()
	return Result{
		Issued:    issued.Load(),
		Completed: completed.Load(),
		Rejected:  rejected.Load(),
		Elapsed:   time.Since(start),
	}
}

func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Burst issues n simultaneous requests (the instantaneous half of the
// power-failure scenario) and waits for all responses. It returns the
// number completed and the total elapsed time.
func Burst(targets []*core.MainUnit, bal loadbal.Balancer, n int, lat *metrics.Histogram) (completed int, elapsed time.Duration) {
	if bal == nil {
		bal, _ = loadbal.NewRoundRobin(len(targets))
	}
	start := time.Now()
	var wg sync.WaitGroup
	var done atomic.Uint64
	for i := 0; i < n; i++ {
		target := targets[bal.Pick()%len(targets)]
		req := &core.InitRequest{Resp: make(chan ede.Snapshot, 1)}
		sentAt := time.Now()
		if err := target.Request(req); err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := <-req.Resp; ok {
				done.Add(1)
				if lat != nil {
					lat.Record(time.Since(sentAt))
				}
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), time.Since(start)
}
