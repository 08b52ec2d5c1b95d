package main

// metricDef is one row of the metric tables: the code's copy of what
// BENCHMARK.json declares (a test holds the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the cluster sees, and what later
// changes are gated on. The driver wants every one of them from every
// workload, so each is defined on all four; op_p50_ms is the workload's
// own mirror-side operation (see opWhat). Every value is a median over
// half-second segments. Bounds are wide because run-to-run spread on
// the 2-core sandbox is 4-17 % for these (measured over ten seeds per
// workload); tail percentiles and memory spread 25-55 % there and are
// recorded per traced run among the per-layer metrics instead, where
// nothing is gated on them.
var endToEnd = []metricDef{
	{"update_delay_p50_ms", "ms", "lower", 0.25},
	{"mirror_lag_mean_ms", "ms", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.15},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// opWhat says what op_p50_ms (and op_tail_ms) time on each workload.
var opWhat = map[string]string{
	"stream_steady":   "event due -> applied on every mirror",
	"stream_saturate": "event sent -> applied on every mirror",
	"init_storm":      "GET /init due -> body read and decoded",
	"rejoin_cycle":    "delta rejoin + snapshot rejoin of one cycle pair, call -> converged",
}

// perLayer lists the single-layer metrics of the traced run, in
// report order. Rows marked (B) come from calling the layer's exported
// functions directly; the rest from counters and benchmark-side spans
// of the end-to-end run. The last rows are end-to-end figures that are
// not gated: the tails and memory, and the workload-specific latencies
// that op_* folds into one name.
var perLayer = []metricDef{
	{Name: "event.frame_encode_ns_per_event", Unit: "ns", Better: "lower"},         // B
	{Name: "event.frame_decode_ns_per_event", Unit: "ns", Better: "lower"},         // B
	{Name: "event.frame_bytes_per_event", Unit: "B", Better: "lower"},              // B
	{Name: "event.slab_pool_hit_ratio", Unit: "ratio", Better: "higher"},           //
	{Name: "vclock.tick_clone_ns", Unit: "ns", Better: "lower"},                    // B
	{Name: "queue.ready_put_get_ns_per_event", Unit: "ns", Better: "lower"},        // B
	{Name: "queue.backup_append_commit_ns_per_event", Unit: "ns", Better: "lower"}, // B
	{Name: "queue.ready_len_mean", Unit: "count", Better: "lower"},
	{Name: "queue.backup_len_max", Unit: "count", Better: "lower"},
	{Name: "ede.process_ns_per_event", Unit: "ns", Better: "lower"},  // B
	{Name: "ede.snapshot_warm_ns", Unit: "ns", Better: "lower"},      // B
	{Name: "ede.snapshot_one_dirty_ns", Unit: "ns", Better: "lower"}, // B
	{Name: "ede.snapshot_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ede.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "core.ingest_call_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "core.filter_ns_per_event", Unit: "ns", Better: "lower"}, // B
	{Name: "core.mirrored_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.outbox_depth_max", Unit: "count", Better: "lower"},
	{Name: "core.link_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "core.link_dropped", Unit: "count", Better: "lower"},
	{Name: "core.events_per_wire_batch", Unit: "count", Better: "higher"},
	{Name: "core.main_queue_len_max", Unit: "count", Better: "lower"},
	{Name: "core.request_init_ns_p50", Unit: "ns", Better: "lower"}, // B
	{Name: "core.pending_requests_max", Unit: "count", Better: "lower"},
	{Name: "core.served_per_site", Unit: "count", Better: "higher"},
	{Name: "echo.tcp_submit_ns_per_event", Unit: "ns", Better: "lower"}, // B
	{Name: "echo.tcp_bytes_per_event", Unit: "B", Better: "lower"},      // B
	{Name: "checkpoint.round_ns", Unit: "ns", Better: "lower"},          // B
	{Name: "checkpoint.round_call_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.rounds_per_kevent", Unit: "count", Better: "lower"},
	{Name: "checkpoint.commit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "statedelta.encode_ns_per_record", Unit: "ns", Better: "lower"}, // B
	{Name: "statedelta.apply_ns_per_record", Unit: "ns", Better: "lower"},  // B
	{Name: "core.rejoin_call_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.rejoin_delta_bytes", Unit: "B", Better: "lower"},
	{Name: "core.rejoin_snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "core.rejoin_replayed_events", Unit: "count", Better: "lower"},
	{Name: "httpfront.init_handler_ns_p50", Unit: "ns", Better: "lower"}, // B
	{Name: "httpfront.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "httpfront.bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "go.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "go.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "update_delay_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "mirror_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "init_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "init_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "rejoin_delta_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rejoin_snapshot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the listed metrics out of vals, each with its unit. A
// metric the run did not produce is reported as missing rather than as
// zero, so a wiring mistake cannot pass for an idle layer.
func pick(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
