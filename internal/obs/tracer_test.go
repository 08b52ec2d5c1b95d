package obs

import (
	"strings"
	"testing"
	"time"
)

// observeOne records one event's central-path decomposition through
// the batch form.
func observeOne(tr *Tracer, ingress, readyAt, forwardAt int64, done time.Time) {
	var p CentralPath
	p.Add(ingress, readyAt, forwardAt, done)
	tr.ObserveCentralPath(&p)
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Observe(StageApply, time.Millisecond)
	observeOne(tr, 1, 2, 3, time.Now())
	if tr.Breakdown() != nil {
		t.Fatal("nil tracer Breakdown should be nil")
	}
	if tr.CentralStageSum() != 0 {
		t.Fatal("nil tracer CentralStageSum should be 0")
	}
	if tr.StageHist(StageApply) != nil {
		t.Fatal("nil tracer StageHist should be nil")
	}
}

func TestTracerTelescoping(t *testing.T) {
	tr := NewTracer(nil)
	base := time.Now()
	t0 := base.UnixNano()
	t1 := base.Add(2 * time.Millisecond).UnixNano()
	t2 := base.Add(5 * time.Millisecond).UnixNano()
	done := base.Add(11 * time.Millisecond)
	observeOne(tr, t0, t1, t2, done)

	if got := tr.StageHist(StageReadyWait).Max(); got != 2*time.Millisecond {
		t.Errorf("ready_wait = %v, want 2ms", got)
	}
	if got := tr.StageHist(StageForward).Max(); got != 3*time.Millisecond {
		t.Errorf("forward = %v, want 3ms", got)
	}
	if got := tr.StageHist(StageApply).Max(); got != 6*time.Millisecond {
		t.Errorf("apply = %v, want 6ms", got)
	}
	if got, want := tr.CentralStageSum(), 11*time.Millisecond; got != want {
		t.Errorf("stage sum = %v, want %v (end-to-end delay)", got, want)
	}
}

func TestTracerClampsNonMonotone(t *testing.T) {
	tr := NewTracer(nil)
	base := time.Now()
	// readyAt/forwardAt zero (event skipped stamping) and done before
	// ingress (virtual-time skew): everything must clamp, never go
	// negative, and still telescope.
	observeOne(tr, base.UnixNano(), 0, 0, base.Add(-time.Millisecond))
	for s := StageReadyWait; s <= StageApply; s++ {
		if got := tr.StageHist(s).Percentile(0); got < 0 {
			t.Errorf("stage %s recorded negative duration %v", s, got)
		}
		if got := tr.StageHist(s).Count(); got != 1 {
			t.Errorf("stage %s count = %d, want 1", s, got)
		}
	}
	if tr.CentralStageSum() != 0 {
		t.Errorf("fully clamped path should sum to 0, got %v", tr.CentralStageSum())
	}
}

func TestTracerIgnoresUnstampedEvents(t *testing.T) {
	tr := NewTracer(nil)
	observeOne(tr, 0, 1, 2, time.Now())
	if got := tr.StageHist(StageApply).Count(); got != 0 {
		t.Fatalf("unstamped event recorded %d samples, want 0", got)
	}
}

func TestTracerRegistersStages(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	tr.Observe(StageLinkSend, 3*time.Millisecond)
	tr.Observe(StageChkptCommit, time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pipeline_stage_seconds_bucket{stage="link_send",le="0.002097152"} 0`,
		`pipeline_stage_seconds_bucket{stage="link_send",le="0.004194304"} 1`,
		`pipeline_stage_seconds_count{stage="chkpt_commit"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-lint failed: %v\n%s", err, out)
	}
}

func TestTracerBreakdownOrder(t *testing.T) {
	tr := NewTracer(nil)
	tr.Observe(StageChkptCommit, time.Millisecond)
	tr.Observe(StageReadyWait, time.Millisecond)
	tr.Observe(StageLinkSend, -time.Millisecond) // clamped to 0
	bd := tr.Breakdown()
	if len(bd) != 3 {
		t.Fatalf("breakdown rows = %d, want 3", len(bd))
	}
	want := []string{"ready_wait", "link_send", "chkpt_commit"}
	for i, row := range bd {
		if row.Stage != want[i] {
			t.Errorf("row %d stage = %s, want %s", i, row.Stage, want[i])
		}
	}
	if bd[1].Max != 0 {
		t.Errorf("negative observation should clamp to 0, got %v", bd[1].Max)
	}
}

// TestTracerBatchForms: a run's samples land in order under the batch
// forms, negatives clamp like Observe, and a flushed CentralPath is
// empty for the next run.
func TestTracerBatchForms(t *testing.T) {
	tr := NewTracer(nil)
	tr.ObserveBatch(StageMirrorApply, []time.Duration{3 * time.Millisecond, -time.Millisecond, time.Millisecond})
	h := tr.StageHist(StageMirrorApply)
	if h.Count() != 3 || h.Percentile(0) != 0 || h.Max() != 3*time.Millisecond || h.Sum() != 4*time.Millisecond {
		t.Fatalf("mirror_apply count/min/max/sum = %d/%v/%v/%v", h.Count(), h.Percentile(0), h.Max(), h.Sum())
	}

	base := time.Now()
	var p CentralPath
	for i := 1; i <= 4; i++ {
		ms := time.Duration(i) * time.Millisecond
		p.Add(base.UnixNano(), base.Add(ms).UnixNano(), base.Add(2*ms).UnixNano(), base.Add(3*ms))
	}
	p.Add(0, 1, 2, base) // unstamped: skipped
	tr.ObserveCentralPath(&p)
	tr.ObserveCentralPath(&p) // already flushed: records nothing
	for s := StageReadyWait; s <= StageApply; s++ {
		if h := tr.StageHist(s); h.Count() != 4 || h.Sum() != 10*time.Millisecond {
			t.Errorf("stage %s count/sum = %d/%v, want 4/10ms", s, h.Count(), h.Sum())
		}
	}
	if got, want := tr.CentralStageSum(), 7500*time.Microsecond; got != want {
		t.Errorf("stage sum = %v, want %v (mean end-to-end delay)", got, want)
	}
}
