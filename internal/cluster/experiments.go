package cluster

import (
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/delta"
	"adaptmirror/internal/event"
	"adaptmirror/internal/faa"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/simnet"
	"adaptmirror/internal/workload"
)

// Options parameterizes one experiment run: a workload (event stream
// plus client request load), a mirroring configuration, and a cluster
// topology. Each figure of the paper's evaluation is a sweep over one
// or two of these fields.
type Options struct {
	// Topology.
	Mirrors   int
	NoMirror  bool
	Transport Transport
	Shaping   simnet.Profile

	// Event stream.
	Flights          int
	UpdatesPerFlight int
	EventSize        int
	WithDelta        bool
	Passengers       int
	EventRate        float64 // events/second; 0 = feed at full speed

	// Mirroring configuration.
	Selective    int  // FAA overwrite length; 0 = simple mirroring
	ComplexRules bool // install the paper's seq + tuple rules
	Coalesce     bool
	MaxCoalesce  int
	ChkptFreq    int

	// Client request load.
	RequestRate     float64
	TotalRequests   int
	RequestPattern  workload.Pattern // overrides RequestRate when set
	RequestDuration time.Duration
	// RequestsToAllSites balances requests over the central site (the
	// primary mirror) as well as the secondary mirrors, matching the
	// paper's "evenly distributed across mirror sites".
	RequestsToAllSites bool
	// RequestsUntilDrained keeps the request generator running at the
	// offered rate until the event stream has fully drained (the
	// "constant request load" of Figures 6-8), instead of stopping at
	// TotalRequests/RequestDuration.
	RequestsUntilDrained bool

	// Adaptation (Figure 9).
	Adaptive           bool
	Baseline, Degraded adapt.Regime
	PendingPrimary     int
	PendingSecondary   int
	ReadyPrimary       int
	ReadySecondary     int
	// Wire-telemetry thresholds (FigBandwidth): engage when the
	// busiest link's EWMA bytes/round or the deepest windowed outbox
	// high-water mark crosses primary.
	WirePrimary     int
	WireSecondary   int
	OutboxPrimary   int
	OutboxSecondary int
	// DeltaRegime, when non-zero, is installed instead of Degraded for
	// engagements triggered by the wire-telemetry variables (the
	// field-delta regime: saturated fan-out degrades to field deltas
	// before it degrades fidelity).
	DeltaRegime adapt.Regime

	// FieldDeltas statically forces the field-delta mirroring regime
	// for the whole run (non-adaptive sweeps of FigBandwidth).
	FieldDeltas bool

	// Misc.
	StatePadding int
	// StateShards/RequestWorkers tune the serving path (0 = defaults:
	// ede.DefaultShards stripes, core.DefaultRequestWorkers workers).
	StateShards    int
	RequestWorkers int
	SeriesBin      time.Duration
	Seed           int64
	Model          costmodel.Model // zero value → costmodel.Default
}

// Result reports one experiment run.
type Result struct {
	// TotalTime is the wall-clock span from workload start until the
	// last site finished all event processing and request service —
	// the paper's "total execution time".
	TotalTime time.Duration
	// MeanDelay/P95Delay/MaxDelay summarize central update delays
	// (ingress → EDE emission), the Figure 8/9 metric.
	MeanDelay time.Duration
	P95Delay  time.Duration
	MaxDelay  time.Duration
	// DelayBins is the per-bin mean update delay in microseconds when
	// Options.SeriesBin was set.
	DelayBins []float64
	// MeanReqLat/P95ReqLat summarize init-state request latencies
	// (enqueue → response ready) across every site's serving pool.
	MeanReqLat time.Duration
	P95ReqLat  time.Duration
	// SnapshotHits/SnapshotMisses aggregate the sites' init-state
	// snapshot-cache counters: hits served from cached segments, misses
	// rebuilt at least one shard.
	SnapshotHits   uint64
	SnapshotMisses uint64
	// Central are the central site's traffic counters.
	Central core.CentralStats
	// Requests summarizes the client load run.
	Requests workload.Result
	// Engages/Reverts count adaptation transitions.
	Engages uint64
	Reverts uint64
	// Stages is the lifecycle tracer's per-stage latency breakdown
	// (ingest → emission decomposed; empty stages omitted).
	Stages []obs.StageStat
	// StageSum is the sum of the central-path stage means — it should
	// telescope to MeanDelay (the tracer's consistency invariant).
	StageSum time.Duration
	// Audit holds the adaptation audit trail (Adaptive runs only): one
	// entry per engage/revert with the sample and thresholds behind it.
	Audit []obs.AuditEntry
	// LinkSentBytes sums payload bytes submitted across every mirror
	// link; BytesPerRound divides it by the checkpoint rounds that ran
	// (the FigBandwidth metric).
	LinkSentBytes uint64
	BytesPerRound float64
}

// zeroModel reports whether m is entirely unset.
func zeroModel(m costmodel.Model) bool { return m == costmodel.Model{} }

// BuildEvents generates the experiment's input stream: an FAA
// position stream (stream 0), optionally interleaved with a Delta
// lifecycle stream (stream 1) at a ~10:1 ratio.
func BuildEvents(opts Options) []*event.Event {
	faaGen := faa.New(faa.Config{
		Flights:          opts.Flights,
		UpdatesPerFlight: opts.UpdatesPerFlight,
		EventSize:        opts.EventSize,
		Stream:           0,
		Seed:             opts.Seed + 1,
	})
	if !opts.WithDelta {
		return faaGen.All()
	}
	deltaGen := delta.New(delta.Config{
		Flights:    opts.Flights,
		Passengers: opts.Passengers,
		EventSize:  minInt(opts.EventSize, 256),
		Stream:     1,
		Seed:       opts.Seed + 2,
	})
	var out []*event.Event
	for {
		for i := 0; i < 10; i++ {
			e, ok := faaGen.Next()
			if !ok {
				out = append(out, deltaGen.All()...)
				return out
			}
			out = append(out, e)
		}
		if e, ok := deltaGen.Next(); ok {
			out = append(out, e)
		}
		if faaGen.Remaining() == 0 && deltaGen.Remaining() == 0 {
			return out
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RunExperiment executes one configuration and reports its result.
func RunExperiment(opts Options) (Result, error) {
	model := opts.Model
	if zeroModel(model) {
		model = costmodel.Default
	}
	cfg := Config{
		Mirrors:        opts.Mirrors,
		Transport:      opts.Transport,
		Shaping:        opts.Shaping,
		Model:          model,
		StatePadding:   opts.StatePadding,
		StateShards:    opts.StateShards,
		RequestWorkers: opts.RequestWorkers,
		NoMirror:       opts.NoMirror,
		SeriesBin:      opts.SeriesBin,
		Params: core.Params{
			Coalesce:       opts.Coalesce,
			MaxCoalesce:    opts.MaxCoalesce,
			CheckpointFreq: opts.ChkptFreq,
		},
	}
	cl, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer cl.Close()

	// Mirroring configuration (Table-1 API calls).
	if opts.Selective > 0 {
		cl.Central.InstallSelective(opts.Selective)
	} else if !opts.Adaptive {
		cl.Central.InstallSimple()
	}
	if opts.ComplexRules {
		cl.Central.SetComplexSeq(event.TypeDeltaStatus, event.StatusLanded, event.TypeFAAPosition)
		cl.Central.SetComplexTuple(
			[]event.Status{event.StatusLanded, event.StatusAtRunway, event.StatusAtGate},
			event.TypeFlightArrived)
	}
	if opts.FieldDeltas {
		cl.Central.SetFieldDeltas(true)
	}
	var controller *adapt.Controller
	var audit *obs.AuditLog
	if opts.Adaptive {
		controller = adapt.NewController(opts.Baseline, opts.Degraded, nil)
		audit = obs.NewAuditLog(0)
		controller.SetAudit(audit)
		cl.Audit = audit
		if opts.PendingPrimary > 0 {
			controller.SetMonitorValues(adapt.VarPending, opts.PendingPrimary, opts.PendingSecondary)
		}
		if opts.ReadyPrimary > 0 {
			controller.SetMonitorValues(adapt.VarReady, opts.ReadyPrimary, opts.ReadySecondary)
		}
		if opts.WirePrimary > 0 {
			controller.SetMonitorValues(adapt.VarWireBytes, opts.WirePrimary, opts.WireSecondary)
		}
		if opts.OutboxPrimary > 0 {
			controller.SetMonitorValues(adapt.VarOutboxDepth, opts.OutboxPrimary, opts.OutboxSecondary)
		}
		if opts.DeltaRegime != (adapt.Regime{}) {
			controller.SetVarRegime(adapt.VarWireBytes, &opts.DeltaRegime)
			controller.SetVarRegime(adapt.VarOutboxDepth, &opts.DeltaRegime)
		}
		cl.AttachController(controller)
	}

	events := BuildEvents(opts)

	start := time.Now()

	// Client request load runs concurrently with the event stream.
	var reqResult workload.Result
	reqDone := make(chan struct{})
	reqStop := make(chan struct{})
	if opts.RequestPattern != nil || opts.RequestRate > 0 {
		pattern := opts.RequestPattern
		if pattern == nil {
			pattern = workload.Constant{RPS: opts.RequestRate}
		}
		targets := cl.Targets()
		if opts.RequestsToAllSites {
			targets = cl.AllTargets()
		}
		var stop <-chan struct{}
		if opts.RequestsUntilDrained {
			stop = reqStop
		}
		go func() {
			defer close(reqDone)
			reqResult = workload.Run(workload.Config{
				Pattern:       pattern,
				Targets:       targets,
				TotalRequests: opts.TotalRequests,
				Duration:      opts.RequestDuration,
				Stop:          stop,
				Seed:          opts.Seed,
			})
		}()
	} else {
		close(reqDone)
	}

	if err := cl.FeedPaced(events, opts.EventRate, nil); err != nil {
		return Result{}, err
	}
	cl.DrainAll()
	close(reqStop)
	<-reqDone
	// Requests book CPU work too; wait for everything to complete.
	// WaitIdle sleeps past every node's booked deadline, so wall
	// clock here is the honest completion instant.
	costmodel.WaitIdle(cl.CPUs...)

	res := Result{
		TotalTime:  time.Since(start),
		MeanDelay:  cl.DelayHist.Mean(),
		P95Delay:   cl.DelayHist.Percentile(95),
		MaxDelay:   cl.DelayHist.Max(),
		MeanReqLat: cl.RequestHist.Mean(),
		P95ReqLat:  cl.RequestHist.Percentile(95),
		Central:    cl.Central.Stats(),
		Requests:   reqResult,
	}
	for _, m := range cl.AllTargets() {
		hits, misses := m.SnapshotCacheStats()
		res.SnapshotHits += hits
		res.SnapshotMisses += misses
	}
	if cl.DelaySeries != nil {
		res.DelayBins = cl.DelaySeries.Bins()
	}
	res.Stages = cl.Tracer.Breakdown()
	res.StageSum = cl.Tracer.CentralStageSum()
	if controller != nil {
		res.Engages, res.Reverts = controller.Transitions()
		res.Audit = audit.Entries()
	}
	for _, ls := range cl.Central.LinkStats() {
		res.LinkSentBytes += ls.SentBytes
	}
	if rounds := res.Central.ChkptRounds; rounds > 0 {
		res.BytesPerRound = float64(res.LinkSentBytes) / float64(rounds)
	} else {
		res.BytesPerRound = float64(res.LinkSentBytes)
	}
	return res, nil
}
