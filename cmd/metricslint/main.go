// Command metricslint is the observability conformance gate: it boots
// an in-process mirrored cluster, runs a small workload, serves the
// cluster registry over a real HTTP front, scrapes /metrics like a
// Prometheus server would, and validates the exposition against the
// text-format rules and against the declarations (obs.LintFamilies):
// every family any linked package declares must be in the scrape with
// its declared TYPE and HELP, and nothing undeclared may be. It exits
// non-zero on any violation, so `make metrics-lint` (part of `make ci`)
// fails the build when an instrument regresses.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/cluster"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/faultinject"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/workload"
)

func run() error {
	model := costmodel.Model{
		EventBase:     2 * time.Microsecond,
		SerializeBase: 500 * time.Nanosecond,
		SubmitBase:    200 * time.Nanosecond,
		RequestBase:   5 * time.Microsecond,
	}
	// A real adaptation controller (thresholds set unreachably high so
	// the run stays in the baseline regime): its presence registers the
	// adapt_engage_total{var=...} family and feeds the status plane.
	fn1 := adapt.Regime{ID: 1, Name: "coalesce-10", Coalesce: true, MaxCoalesce: 10, CheckpointFreq: 50}
	fn2 := adapt.Regime{ID: 2, Name: "overwrite-20", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
	controller := adapt.NewController(fn1, fn2, nil)
	controller.SetMonitorValues(adapt.VarWireBytes, 1<<30, 0)
	cl, err := cluster.New(cluster.Config{
		Mirrors: 2,
		Model:   model,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.AttachController(controller)
	// Only the chaos rig runs links behind a fault plane; one idle wrapped
	// link puts its counters in the scrape, so every declared family is.
	faultinject.NewPlane(1, cl.Obs).Wrap("lint", nil, faultinject.Faults{})

	// A small mirrored workload so every instrument has moved: events
	// through the full pipeline, plus init-state requests against the
	// serving pool.
	events := cluster.BuildEvents(cluster.Options{
		Flights: 10, UpdatesPerFlight: 30, EventSize: 128, Seed: 1,
	})
	if err := cl.Feed(events); err != nil {
		return err
	}
	cl.DrainAll()
	workload.Run(workload.Config{
		Pattern:       workload.Constant{RPS: 1e5},
		Targets:       cl.AllTargets(),
		TotalRequests: 50,
		Seed:          1,
	})

	// Serve the registry exactly as a deployed site does and scrape it
	// over the wire.
	front := httpfront.NewWithRegistry(cl.Central.Main(), cl.Obs)
	defer front.Close()
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
	}

	declared := obs.Families()
	if err := obs.LintFamilies(bytes.NewReader(body), declared); err != nil {
		return fmt.Errorf("exposition: %w", err)
	}
	fmt.Printf("metricslint: ok (%d lines, all %d declared families present)\n",
		bytes.Count(body, []byte("\n")), len(declared))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "metricslint: %v\n", err)
		os.Exit(1)
	}
}
