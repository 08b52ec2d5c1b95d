package obs

import (
	"time"

	"adaptmirror/internal/metrics"
)

// Stage identifies one segment of an event's path through the
// pipeline. The first three stages telescope: for an event processed
// by the central EDE, ready_wait + forward + apply equals its
// end-to-end update delay (ingress → EDE emission), so the Figure 8/9
// metric decomposes into where the time is actually spent.
type Stage uint8

// Lifecycle stages.
const (
	// StageReadyWait is ingress (receiving-task timestamping) until the
	// sending task removes the event from the ready queue.
	StageReadyWait Stage = iota
	// StageForward is ready-queue removal until the run the event
	// travels in is handed to the local main unit (the forwarding
	// decision; one stamp per run).
	StageForward
	// StageApply is main-unit queueing — including the wait for room in
	// its bounded queue, the back-pressure on the sending task — plus
	// EDE rule processing, ending at the emission instant on the node's
	// virtual timeline.
	StageApply
	// StageFanoutEnqueue is ready-queue removal until the filtered
	// batch has been handed to every mirror link's outbox.
	StageFanoutEnqueue
	// StageLinkSend is the wall-clock latency of one batch submission
	// on a mirror link (the fan-out pipeline's stall time).
	StageLinkSend
	// StageMirrorApply is central ingress until a mirror site's EDE
	// emits the event — the replica-freshness lag.
	StageMirrorApply
	// StageChkptCommit is one checkpoint round's CHKPT→COMMIT latency.
	StageChkptCommit
	numStages
)

// String names the stage (used as the "stage" label value).
func (s Stage) String() string {
	switch s {
	case StageReadyWait:
		return "ready_wait"
	case StageForward:
		return "forward"
	case StageApply:
		return "apply"
	case StageFanoutEnqueue:
		return "fanout_enqueue"
	case StageLinkSend:
		return "link_send"
	case StageMirrorApply:
		return "mirror_apply"
	case StageChkptCommit:
		return "chkpt_commit"
	default:
		return "unknown"
	}
}

// Tracer aggregates per-stage latency histograms for the event
// lifecycle. All methods are safe for concurrent use and no-ops on a
// nil receiver, so pipeline code can call through unconditionally.
type Tracer struct {
	hists [numStages]*metrics.Histogram
}

// famStage is the family the tracer's stage histograms live in.
var famStage = Declare("pipeline_stage_seconds", KindHistogram, "Event-lifecycle latency by pipeline stage.")

// NewTracer returns a tracer whose stage histograms are registered on
// r as pipeline_stage_seconds{stage="..."} (r may be nil for an
// unregistered tracer).
func NewTracer(r *Registry) *Tracer {
	t := &Tracer{}
	for s := Stage(0); s < numStages; s++ {
		t.hists[s] = r.Histogram(famStage, L("stage", s.String()))
	}
	return t
}

// Observe records one latency sample for a stage. Negative durations
// are clamped to zero.
func (t *Tracer) Observe(s Stage, d time.Duration) {
	if t == nil || s >= numStages {
		return
	}
	if d < 0 {
		d = 0
	}
	t.hists[s].Record(d)
}

// ObserveBatch records a run of latency samples for a stage under one
// histogram lock. Negative durations are clamped to zero, in place.
func (t *Tracer) ObserveBatch(s Stage, ds []time.Duration) {
	if t == nil || s >= numStages {
		return
	}
	for i, d := range ds {
		if d < 0 {
			ds[i] = 0
		}
	}
	t.hists[s].RecordBatch(ds)
}

// CentralPath buffers the central-path decomposition of a run of
// events, so the main unit books a run's ready_wait/forward/apply
// samples with three histogram locks instead of three per event. The
// zero value is ready to use.
type CentralPath struct {
	readyWait, forward, apply []time.Duration
}

// Add decomposes one centrally processed event's update delay into
// ready_wait/forward/apply from its stamps: ingress and
// readyAt/forwardAt (UnixNano, 0 when the event skipped that stage)
// and the EDE emission instant. The stage boundaries are clamped into
// the delay interval [ingress, done], so the three stages telescope
// exactly to the reported update delay (clamped at zero, like
// DelayHist). The clamp matters because the stamps are wall-clock
// instants while done sits on the node's virtual timeline, which may
// run behind wall clock by up to the cost model's catch-up window: a
// stage boundary stamped after the virtual emission instant
// contributes all of its remaining time to the earlier stages and
// none to the later ones, keeping the decomposition an accounting of
// the delay metric rather than of host scheduling noise. Events that
// never passed a receiving task (ingress 0) are skipped.
func (p *CentralPath) Add(ingress, readyAt, forwardAt int64, done time.Time) {
	if ingress == 0 {
		return
	}
	t0 := ingress
	t3 := done.UnixNano()
	if t3 < t0 {
		t3 = t0
	}
	t1 := t0
	if readyAt > t1 {
		t1 = readyAt
	}
	if t1 > t3 {
		t1 = t3
	}
	t2 := t1
	if forwardAt > t2 {
		t2 = forwardAt
	}
	if t2 > t3 {
		t2 = t3
	}
	p.readyWait = append(p.readyWait, time.Duration(t1-t0))
	p.forward = append(p.forward, time.Duration(t2-t1))
	p.apply = append(p.apply, time.Duration(t3-t2))
}

// ObserveCentralPath records the buffered decompositions, in the order
// they were added, and empties p for the next run.
func (t *Tracer) ObserveCentralPath(p *CentralPath) {
	if t != nil {
		t.hists[StageReadyWait].RecordBatch(p.readyWait)
		t.hists[StageForward].RecordBatch(p.forward)
		t.hists[StageApply].RecordBatch(p.apply)
	}
	p.readyWait, p.forward, p.apply = p.readyWait[:0], p.forward[:0], p.apply[:0]
}

// StageHist exposes one stage's histogram (nil on a nil tracer).
func (t *Tracer) StageHist(s Stage) *metrics.Histogram {
	if t == nil || s >= numStages {
		return nil
	}
	return t.hists[s]
}

// StageStat is one row of a tracer breakdown.
type StageStat struct {
	Stage string
	Count uint64
	Mean  time.Duration
	P95   time.Duration
	Max   time.Duration
}

// Breakdown returns per-stage statistics for every stage that recorded
// at least one sample, in pipeline order.
func (t *Tracer) Breakdown() []StageStat {
	if t == nil {
		return nil
	}
	var out []StageStat
	for s := Stage(0); s < numStages; s++ {
		h := t.hists[s]
		n := h.Count()
		if n == 0 {
			continue
		}
		out = append(out, StageStat{
			Stage: s.String(),
			Count: n,
			Mean:  h.Mean(),
			P95:   h.Percentile(95),
			Max:   h.Max(),
		})
	}
	return out
}

// CentralStageSum returns the sum of the central-path stage means
// (ready_wait + forward + apply). For a run where every processed
// event was traced, it equals the mean of the per-event stage sums and
// should match the mean update delay.
func (t *Tracer) CentralStageSum() time.Duration {
	if t == nil {
		return 0
	}
	return t.hists[StageReadyWait].Mean() +
		t.hists[StageForward].Mean() +
		t.hists[StageApply].Mean()
}
