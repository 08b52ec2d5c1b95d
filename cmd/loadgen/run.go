package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/loadbal"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/workload"
)

// runConfig parameterizes one load run (the testable core of the
// command).
type runConfig struct {
	// URLs are the /init endpoints to hit.
	URLs []string
	// Pattern is the offered-rate schedule.
	Pattern workload.Pattern
	// Duration bounds the run.
	Duration time.Duration
	// Total, when positive, stops after this many requests.
	Total int
	// Client issues the requests (nil uses a default with timeout).
	Client *http.Client
}

// runStats summarizes a run.
type runStats struct {
	Issued    uint64
	Completed uint64
	Failed    uint64
	Elapsed   time.Duration
	Latency   *metrics.Histogram
}

// run executes the open-loop load: request debt accumulates as the
// integral of the offered rate and each wake-up dispatches the due
// batch, keeping offered load accurate far above sleep granularity.
func run(cfg runConfig) (runStats, error) {
	if len(cfg.URLs) == 0 {
		return runStats{}, fmt.Errorf("loadgen: no targets")
	}
	bal, err := loadbal.NewRoundRobin(len(cfg.URLs))
	if err != nil {
		return runStats{}, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	lat := new(metrics.Histogram)
	var issued, completed, failed atomic.Uint64
	var wg sync.WaitGroup

	dispatch := func() {
		url := cfg.URLs[bal.Pick()]
		issued.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := client.Get(url)
			if err != nil {
				failed.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
				return
			}
			completed.Add(1)
			lat.Record(time.Since(start))
		}()
	}

	start := time.Now()
	last := start
	var due float64
	n := 0
	for {
		now := time.Now()
		elapsed := now.Sub(start)
		if cfg.Duration > 0 && elapsed >= cfg.Duration {
			break
		}
		if cfg.Total > 0 && n >= cfg.Total {
			break
		}
		due += cfg.Pattern.Rate(elapsed) * now.Sub(last).Seconds()
		last = now
		for due >= 1 {
			if cfg.Total > 0 && n >= cfg.Total {
				due = 0
				break
			}
			dispatch()
			n++
			due--
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	return runStats{
		Issued:    issued.Load(),
		Completed: completed.Load(),
		Failed:    failed.Load(),
		Elapsed:   time.Since(start),
		Latency:   lat,
	}, nil
}
