// Command metricslint is the observability conformance gate: it boots
// an in-process mirrored cluster, runs a small workload, serves the
// cluster registry over a real HTTP front, scrapes /metrics like a
// Prometheus server would, and validates the exposition against the
// text-format rules (obs.LintPrometheus) plus a required-family
// checklist covering every subsystem the registry must report on. It
// exits non-zero on any violation, so `make metrics-lint` (part of
// `make ci`) fails the build when an instrument regresses.
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/cluster"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/workload"
)

// requiredSeries is the coverage checklist: one representative series
// per subsystem. A missing entry means a registration was dropped or
// renamed — both break dashboards silently, which is exactly what this
// gate exists to catch.
var requiredSeries = []string{
	// Ingest and forward path.
	`central_received_total{site="central"}`,
	`central_forwarded_total{site="central"}`,
	`central_mirrored_total{site="central"}`,
	// Queues (adaptation-monitored variables).
	`queue_ready_depth{site="central"}`,
	`queue_backup_depth{site="central"}`,
	`pending_requests{site="central"}`,
	// Fan-out links, per mirror.
	`link_enqueued_total{mirror="0"}`,
	`link_sent_total{mirror="1"}`,
	`link_outbox_depth{mirror="0"}`,
	// Wire telemetry (bandwidth-adaptation monitored variables).
	`link_wire_bytes_total{mirror="0"}`,
	`link_wire_bytes_per_round{mirror="0"}`,
	`link_wire_events_per_round{mirror="1"}`,
	`link_est_bandwidth_bytes_per_second{mirror="0"}`,
	// Columnar wire batches and the slab pool behind them.
	`wire_batch_events_count{mirror="0"}`,
	`wire_batch_bytes_count{mirror="1"}`,
	`slab_pool_hit_total`,
	`slab_pool_miss_total`,
	`slab_pool_retained_total`,
	// Mirror sites.
	`mirror_received_total{site="mirror0"}`,
	`mirror_apply_lag_micros{site="mirror0"}`,
	`queue_ready_depth{site="mirror1"}`,
	// Serving path and snapshot cache.
	`requests_served_total{site="mirror0"}`,
	`snapshot_cache_hits_total{site="mirror0"}`,
	`snapshot_cache_misses_total{site="mirror0"}`,
	// Adaptation control plane: the mirror-side directive applier is
	// wired unconditionally, so even a non-adaptive cluster exports the
	// installed-regime gauge and the discard counters.
	`adapt_regime_id{site="mirror0"}`,
	`adapt_directive_stale_total{site="mirror0"}`,
	`adapt_directive_invalid_total{site="mirror1"}`,
	// Central controller engage counters, by triggering variable (the
	// lint cluster wires a real controller with unreachable thresholds,
	// so the series exist at zero).
	`adapt_engage_total{var="wire_bytes"}`,
	`adapt_engage_total{var="outbox_depth"}`,
	`adapt_engage_total{var="apply_lag"}`,
	// Incremental rejoin and the mutation journal behind it. Both
	// transfer modes are registered up front (labels render sorted by
	// key), so the series exist even before any rejoin happens.
	`rejoin_mode_total{mode="snapshot",site="central"}`,
	`rejoin_mode_total{mode="delta",site="central"}`,
	`rejoin_bytes_total{mode="snapshot",site="central"}`,
	`rejoin_bytes_total{mode="delta",site="central"}`,
	`statedelta_journal_flights{site="central"}`,
	// Warm-standby promotion: counters and the epoch gauge exist from
	// boot (zero for an original, never-promoted central).
	`promotion_total{site="central"}`,
	`promotion_replayed_events_total{site="central"}`,
	`central_epoch{site="central"}`,
	// Wire takeover (cmd/mirrord): detection firings, survivor uplink
	// repoints, and election-claim traffic, registered at zero on every
	// mirror site.
	`takeover_fired_total{site="mirror0"}`,
	`uplink_repoint_total{site="mirror0"}`,
	`election_claims_total{site="mirror1"}`,
	// Checkpointing.
	`checkpoint_rounds_total{site="central"}`,
	`checkpoint_commits_total{site="central"}`,
	`checkpoint_round_seconds_count{site="central"}`,
	`checkpoint_trimmed_events_total{site="central"}`,
	// Lifecycle tracer.
	`pipeline_stage_seconds_count{stage="ready_wait"}`,
	`pipeline_stage_seconds_count{stage="forward"}`,
	`pipeline_stage_seconds_count{stage="apply"}`,
	`pipeline_stage_seconds_count{stage="link_send"}`,
	`pipeline_stage_seconds_count{stage="mirror_apply"}`,
	`pipeline_stage_seconds_count{stage="chkpt_commit"}`,
	// Cluster-level histograms and counters.
	`update_delay_seconds_count`,
	`request_latency_seconds_count`,
	`client_updates_total`,
	// HTTP front.
	`http_requests_total`,
	`http_uptime_seconds`,
}

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

	text := string(body)
	if err := obs.LintPrometheus(strings.NewReader(text)); err != nil {
		return fmt.Errorf("exposition format: %w", err)
	}
	var missing []string
	for _, want := range requiredSeries {
		if !strings.Contains(text, want) {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("exposition missing %d required series:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
	fmt.Printf("metricslint: ok (%d lines, %d required series present)\n",
		strings.Count(text, "\n"), len(requiredSeries))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "metricslint: %v\n", err)
		os.Exit(1)
	}
}
