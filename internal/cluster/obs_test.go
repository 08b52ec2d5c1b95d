package cluster

import (
	"strings"
	"testing"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/obs"
)

// TestStageSumMatchesMeanDelay checks the tracer's telescoping
// invariant on a Fig-5-style run: the sum of the central-path stage
// means (ready_wait + forward + apply) must reproduce the mean update
// delay within 5% — the decomposition accounts for the end-to-end
// metric, it does not invent or lose time.
//
// The events cost enough that the central's ledger runs ahead of the
// wall clock from the first few events on, so every delay is booked
// queueing and processing. Under lightModel the ledger sits idle: each
// charge back-fills the catch-up window, an event can complete before
// it arrived, and on a host busy enough that no event queues longer
// than the window every delay clamps to zero.
func TestStageSumMatchesMeanDelay(t *testing.T) {
	model := lightModel
	model.EventBase = 20 * time.Microsecond // 2000 events: 40 ms of ledger
	res, err := RunExperiment(Options{
		Mirrors: 2, Flights: 50, UpdatesPerFlight: 40, EventSize: 128,
		ChkptFreq: 50,
		Model:     model, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDelay <= 0 {
		t.Fatalf("MeanDelay = %v, want > 0", res.MeanDelay)
	}
	diff := res.StageSum - res.MeanDelay
	if diff < 0 {
		diff = -diff
	}
	if tol := res.MeanDelay / 20; diff > tol {
		t.Fatalf("stage sum %v vs mean delay %v: differ by %v (> 5%% = %v)\nstages: %+v",
			res.StageSum, res.MeanDelay, diff, tol, res.Stages)
	}
}

// TestStagesCoverPipeline asserts a mirrored run populates every
// lifecycle stage: the central decomposition, the fan-out path, the
// mirrors' apply lag, and checkpoint commits.
func TestStagesCoverPipeline(t *testing.T) {
	res, err := RunExperiment(Options{
		Mirrors: 2, Flights: 10, UpdatesPerFlight: 30, EventSize: 128,
		ChkptFreq: 50,
		Model:     lightModel, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]obs.StageStat{}
	for _, st := range res.Stages {
		got[st.Stage] = st
	}
	for _, want := range []string{
		"ready_wait", "forward", "apply",
		"fanout_enqueue", "link_send", "mirror_apply", "chkpt_commit",
	} {
		st, ok := got[want]
		if !ok {
			t.Errorf("stage %q missing from breakdown %+v", want, res.Stages)
			continue
		}
		if st.Count == 0 {
			t.Errorf("stage %q recorded no samples", want)
		}
	}
	// 300 events through the central EDE and through each of 2 mirrors.
	if got["apply"].Count != 300 {
		t.Errorf("apply count = %d, want 300", got["apply"].Count)
	}
	if got["mirror_apply"].Count != 600 {
		t.Errorf("mirror_apply count = %d, want 600", got["mirror_apply"].Count)
	}
}

// TestClusterRegistryExposition scrapes the cluster-wide registry after
// a run: one WritePrometheus dump must cover ingest counters, fan-out
// links, queue depths, the snapshot cache, checkpoint rounds, and the
// stage histograms — and conform to the exposition format.
func TestClusterRegistryExposition(t *testing.T) {
	cl, err := New(Config{Mirrors: 2, Model: lightModel})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	events := BuildEvents(Options{Flights: 4, UpdatesPerFlight: 25, EventSize: 128, Seed: 13})
	if err := cl.Feed(events); err != nil {
		t.Fatal(err)
	}
	cl.DrainAll()
	if _, err := cl.Mirrors[0].Main().RequestInitState(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := cl.Obs.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := obs.LintPrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition not conformant: %v\n%s", err, text)
	}
	for _, want := range []string{
		`central_received_total{site="central"}`,
		`central_mirrored_total{site="central"}`,
		`link_sent_total{mirror="0"}`,
		`link_sent_total{mirror="1"}`,
		`link_outbox_depth{mirror="0"}`,
		`queue_ready_depth{site="central"}`,
		`queue_ready_depth{site="mirror0"}`,
		`mirror_received_total{site="mirror1"}`,
		`snapshot_cache_misses_total{site="mirror0"}`,
		`checkpoint_rounds_total{site="central"}`,
		`checkpoint_round_seconds_count{site="central"}`,
		`pipeline_stage_seconds_count{stage="apply"}`,
		`pipeline_stage_seconds_count{stage="mirror_apply"}`,
		`update_delay_seconds_count`,
		`client_updates_total 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAdaptiveRunAuditsTransitions runs a Fig-8/9-style adaptive
// experiment and checks the audit trail: every logged engage fired at
// or above the primary threshold, every revert below the hysteresis
// band, and the trail's transition counts match the controller's.
func TestAdaptiveRunAuditsTransitions(t *testing.T) {
	model := lightModel
	model.RequestBase = 300 * time.Microsecond
	res, err := RunExperiment(Options{
		Mirrors: 1, Flights: 4, UpdatesPerFlight: 50, EventSize: 64,
		EventRate:      5000,
		Adaptive:       true,
		Baseline:       adapt.Regime{ID: 1, Coalesce: true, MaxCoalesce: 10, OverwriteLen: 10, CheckpointFreq: 10},
		Degraded:       adapt.Regime{ID: 2, Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 20},
		PendingPrimary: 1, PendingSecondary: 1,
		RequestRate: 1e6, TotalRequests: 100,
		Model: model, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engages == 0 {
		t.Fatal("adaptation never engaged despite saturating thresholds")
	}
	if len(res.Audit) == 0 {
		t.Fatal("adaptive run recorded no audit entries")
	}
	var engages, reverts uint64
	for i, e := range res.Audit {
		switch e.Action {
		case "engage":
			engages++
			if e.Value < e.Primary {
				t.Errorf("audit[%d]: engage at %s=%d below primary %d", i, e.Var, e.Value, e.Primary)
			}
		case "revert":
			reverts++
			if e.Value >= e.Primary-e.Secondary {
				t.Errorf("audit[%d]: revert at %s=%d inside hysteresis band (primary %d - secondary %d)",
					i, e.Var, e.Value, e.Primary, e.Secondary)
			}
		default:
			t.Errorf("audit[%d]: unknown action %q", i, e.Action)
		}
		if e.Seq == 0 || e.At.IsZero() {
			t.Errorf("audit[%d]: missing seq/timestamp: %+v", i, e)
		}
	}
	if engages != res.Engages || reverts != res.Reverts {
		t.Errorf("audit counts engage/revert = %d/%d, controller reports %d/%d",
			engages, reverts, res.Engages, res.Reverts)
	}
}
