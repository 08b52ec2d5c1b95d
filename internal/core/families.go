package core

import (
	"sync/atomic"

	"adaptmirror/internal/obs"
	"adaptmirror/internal/queue"
)

// The metric families this package owns, each declared once. Series are
// labeled site="..." unless noted; the link_* and wire_batch_* families
// are labeled mirror="<index>" on the central's registry.
var (
	// Central pipeline.
	famCentralReceived  = obs.Declare("central_received_total", obs.KindCounter, "Raw events admitted by the receiving task.")
	famCentralForwarded = obs.Declare("central_forwarded_total", obs.KindCounter, "Events delivered to the central main unit.")
	famCentralMirrored  = obs.Declare("central_mirrored_total", obs.KindCounter, "Events handed to the mirror fan-out.")
	famCentralMirroredW = obs.Declare("central_mirrored_weight_total", obs.KindCounter, "Raw events represented by mirrored ones.")

	// Queues of a central or mirror site (the adaptation-monitored
	// variables) and what checkpoint commits release from them.
	famReadyDepth    = obs.Declare("queue_ready_depth", obs.KindGauge, "Ready-queue depth (adaptation-monitored).")
	famBackupDepth   = obs.Declare("queue_backup_depth", obs.KindGauge, "Backup-queue depth (adaptation-monitored).")
	famTrimmedEvents = obs.Declare("checkpoint_trimmed_events_total", obs.KindCounter, "Backup-queue events released by checkpoint commits.")
	famTrimmedBytes  = obs.Declare("checkpoint_trimmed_bytes_total", obs.KindCounter, "Backup-queue payload bytes released by checkpoint commits.")

	// Checkpoint coordinator.
	famCheckpointRounds  = obs.Declare("checkpoint_rounds_total", obs.KindCounter, "Checkpoint rounds initiated.")
	famCheckpointCommits = obs.Declare("checkpoint_commits_total", obs.KindCounter, "Checkpoint rounds committed.")
	famCheckpointRound   = obs.Declare("checkpoint_round_seconds", obs.KindHistogram, "CHKPT to COMMIT latency per checkpoint round.")

	// Rejoin and promotion (rejoin_* also carry mode="snapshot"|"delta").
	famRejoinMode        = obs.Declare("rejoin_mode_total", obs.KindCounter, "Completed mirror recovery transfers by state-transfer mode.")
	famRejoinBytes       = obs.Declare("rejoin_bytes_total", obs.KindCounter, "Recovery-transfer payload bytes shipped, by state-transfer mode.")
	famJournalFlights    = obs.Declare("statedelta_journal_flights", obs.KindGauge, "Flights tracked by the central mutation journal.")
	famPromotions        = obs.Declare("promotion_total", obs.KindCounter, "Warm-standby promotions this central performed (1 when it took over from a failed central).")
	famPromotionReplayed = obs.Declare("promotion_replayed_events_total", obs.KindCounter, "Backup-queue events replayed from the last committed cut during promotion.")
	famCentralEpoch      = obs.Declare("central_epoch", obs.KindGauge, "Promotion epoch this central stamps checkpoint rounds in (0 = original central).")

	// Wire takeover.
	famTakeoverFired  = obs.Declare("takeover_fired_total", obs.KindCounter, "Central-failure declarations by the wire-takeover monitor.")
	famUplinkRepoints = obs.Declare("uplink_repoint_total", obs.KindCounter, "Control-uplink swings to a promoted central's address.")
	famElectionClaims = obs.Declare("election_claims_total", obs.KindCounter, "Central-election claims sent or received.")

	// Mirror site.
	famMirrorReceived = obs.Declare("mirror_received_total", obs.KindCounter, "Mirrored events accepted from the central site.")
	famMirrorApplyLag = obs.Declare("mirror_apply_lag_micros", obs.KindGauge, "Smoothed mirror-apply lag (central ingress to replica EDE emission), microseconds.")

	// Main unit.
	famMainQueueDepth  = obs.Declare("main_queue_depth", obs.KindGauge, "Main-unit inbound event queue depth.")
	famPendingRequests = obs.Declare("pending_requests", obs.KindGauge, "Client init-state requests buffered (adaptation-monitored).")
	famRequestsServed  = obs.Declare("requests_served_total", obs.KindCounter, "Client init-state requests answered.")
	famEventsProcessed = obs.Declare("events_processed_total", obs.KindCounter, "Weighted events applied by the EDE.")
	famUpdatesEmitted  = obs.Declare("updates_emitted_total", obs.KindCounter, "State updates emitted to clients.")
	// FamRequestLatency is labeled by site when a main unit records its
	// own requests, and unlabeled when one histogram is shared by every
	// site of an in-process cluster (MainConfig.RequestHist).
	FamRequestLatency = obs.Declare("request_latency_seconds", obs.KindHistogram, "Init-state request latency, enqueue to response.")

	// Fan-out links.
	famLinkEnqueued  = obs.Declare("link_enqueued_total", obs.KindCounter, "Events accepted into the link outbox.")
	famLinkSent      = obs.Declare("link_sent_total", obs.KindCounter, "Events submitted on the mirror link.")
	famLinkWireBytes = obs.Declare("link_wire_bytes_total", obs.KindCounter, "Payload bytes submitted on the mirror link.")
	famLinkFiltered  = obs.Declare("link_filtered_total", obs.KindCounter, "Events suppressed by the per-link filter.")
	famLinkDropped   = obs.Declare("link_dropped_total", obs.KindCounter, "Events shed on outbox overflow.")
	famLinkDepth     = obs.Declare("link_outbox_depth", obs.KindGauge, "Current outbox depth per mirror link.")
	famLinkDepthMax  = obs.Declare("link_outbox_depth_max", obs.KindGauge, "Outbox depth high-water mark per mirror link (windowed: resets at each telemetry tick).")
	famLinkStall     = obs.Declare("link_stall_seconds_total", obs.KindCounter, "Wall-clock time the link sender spent blocked in submission.")
	famBatchEvents   = obs.Declare("wire_batch_events", obs.KindHistogram, "Events per wire batch submission.")
	famBatchBytes    = obs.Declare("wire_batch_bytes", obs.KindHistogram, "Payload bytes per wire batch submission.")
)

// registerBackup exports a site's backup queue: its depth and what
// checkpoint commits have released from it.
func registerBackup(r *obs.Registry, b *queue.Backup, site obs.Label) {
	r.Func(famBackupDepth, func() float64 { return float64(b.Len()) }, site)
	r.Func(famTrimmedEvents, func() float64 {
		n, _ := b.Trimmed()
		return float64(n)
	}, site)
	r.Func(famTrimmedBytes, func() float64 {
		_, n := b.Trimmed()
		return float64(n)
	}, site)
}

// TakeoverStats are the wire-takeover runtime's counters, registered
// once per site via RegisterTakeoverMetrics so the series exist at zero
// from boot.
type TakeoverStats struct {
	// Fired counts central-failure declarations by this site's monitor.
	Fired atomic.Uint64
	// Repoints counts ctrl.up uplink swings to a promoted address.
	Repoints atomic.Uint64
	// Claims counts election claims sent or received by this site.
	Claims atomic.Uint64
}

// RegisterTakeoverMetrics exports a site's wire-takeover counters on r
// (nil-safe) and returns the stats sink the runtime increments.
func RegisterTakeoverMetrics(r *obs.Registry, site string) *TakeoverStats {
	s := &TakeoverStats{}
	l := obs.L("site", site)
	r.Func(famTakeoverFired, obs.Load(&s.Fired), l)
	r.Func(famUplinkRepoints, obs.Load(&s.Repoints), l)
	r.Func(famElectionClaims, obs.Load(&s.Claims), l)
	return s
}
