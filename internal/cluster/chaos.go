// Chaos harness: runs a Figure-5-style workload through a manually
// wired cluster whose links pass through a seeded fault plane, executes
// the seed's fault schedule (mirror crash-restart with volatile-state
// loss, link partitions, probabilistic control-link faults, a slow
// mirror), and machine-checks the mirroring framework's safety
// invariants the whole way:
//
//  1. committed checkpoint cuts are monotone — a later commit subsumes
//     an earlier one, never regresses it (per backup-queue incarnation);
//  2. backup queues never retain anything at or below their committed
//     cut, never reorder, and the central cut never runs ahead of the
//     central EDE's progress;
//  3. a crash-restarted mirror recovered through the snapshot +
//     backup-replay path converges to the central EDE state
//     byte-for-byte once the stream drains;
//  4. central update-delay percentiles stay inside a latency envelope
//     even while a mirror is down — a dead site degrades alone;
//  5. adaptation converges: regime directives piggybacked on the
//     faulty control links install in strictly increasing round order
//     at every mirror incarnation (a stale or duplicate delivery never
//     installs), and after drain every site's installed regime ID
//     equals the central controller's;
//  6. incremental rejoin is sound: a healthy mirror that falls behind
//     (partitioned until excluded, then overtaken by fresh traffic and
//     commits) and rejoins presenting its committed cut is served the
//     per-cut state delta — not a full snapshot — and still converges
//     to the central EDE state byte-for-byte (checked by invariant 3
//     over the same drained cluster);
//  7. central failover is lossless and monotone: when the schedule
//     class kills the central site itself (ChaosConfig.CentralCrash),
//     the warm-standby mirror detects the missed rounds and is
//     promoted, the adopted state covers the last committed checkpoint
//     cut (nothing durable is lost), the drained cluster's final
//     committed cut covers the pre-crash cut, and round/cut numbering
//     never regresses across the promotion epoch (checkpoint rounds
//     restart above checkpoint.EpochBase; the surviving appliers'
//     install watermarks carry over, so a directive stamped by the old
//     central can never install after one stamped by the new).
//
// The adaptation scenario runs in every chaos run: the workload's
// checkpoint cadence pushes the central backup queue over the primary
// threshold (a Figure-8-style overload ramp), a fixed-length calm tail
// lets the per-site revert rule bring the cluster back to baseline,
// and the regimes themselves are state-neutral so transitions never
// perturb the mirrored stream — what the scenario stresses is the
// directive control plane under dup/drop/reorder/corrupt faults,
// crash-restart, and recovery.
//
// Everything observable about a run derives from the seed: the
// workload, the fault schedule, and each link's per-submission fault
// decisions. Goroutine interleaving still varies between runs, so the
// invariants are stated to hold under every interleaving; a violation
// report prints the seed and schedule for one-command replay
// (scripts/chaos_repro.sh).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/faultinject"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/site"
	"adaptmirror/internal/vclock"
)

// chaosModel is a light cost model for chaos runs: heavy enough to
// exercise the virtual CPUs, light enough for 32 seeds under -race.
// (The cluster tests' lightModel is test-only; cmd/chaosrunner links
// this file, so the chaos harness carries its own.)
var chaosModel = costmodel.Model{
	EventBase:      2 * time.Microsecond,
	SerializeBase:  500 * time.Nanosecond,
	SubmitBase:     200 * time.Nanosecond,
	RequestBase:    5 * time.Microsecond,
	CheckpointBase: time.Microsecond,
	ControlCost:    200 * time.Nanosecond,
}

// Adaptation scenario parameters. The backup-queue thresholds sit
// below the checkpoint cadence (CheckpointEvery events accumulate
// between rounds), so the first round of every run observes an
// over-primary central sample and engages deterministically; the calm
// floor (primary − secondary) is 8, low enough that the trickle-fed
// calm tail reads calm at every site once a commit has trimmed the
// backlog. The tail length leaves a wide margin over the revert
// debounce even when control faults abort several commits in a row.
const (
	chaosAdaptPrimary   = 48
	chaosAdaptSecondary = 40
	chaosCalmTail       = 24
)

// The chaos regimes are deliberately state-neutral: both leave
// coalescing and overwriting off and keep checkpointing
// driver-sequenced, so a regime transition never perturbs the
// mirrored stream and the seed-exact StateDigest replay check stays
// valid. What distinguishes them is the ID the directive carries.
var (
	chaosBaselineRegime = adapt.Regime{ID: 1, Name: "chaos-baseline", MaxCoalesce: 1, CheckpointFreq: 1 << 30}
	chaosDegradedRegime = adapt.Regime{ID: 2, Name: "chaos-degraded", MaxCoalesce: 1, CheckpointFreq: 1 << 30}
)

// ChaosConfig parameterizes one chaos run. The zero value of every
// field selects a sensible default, so ChaosConfig{Seed: n} is a
// complete configuration.
type ChaosConfig struct {
	// Seed drives the workload, the fault schedule, and every link's
	// fault decision stream.
	Seed int64
	// Mirrors is the mirror-site count (default 3).
	Mirrors int
	// Flights/UpdatesPerFlight/EventSize shape the FAA position stream
	// (defaults 24/40/96 — ~960 events).
	Flights          int
	UpdatesPerFlight int
	EventSize        int
	// CheckpointEvery runs a checkpoint round after every N fed events
	// (default 64). Rounds are driver-sequenced so the schedule is
	// expressed in stream positions, not wall time.
	CheckpointEvery int
	// MissedRounds is the failure detector's miss budget (default 3).
	MissedRounds int
	// EnvelopeP95 bounds the central update-delay 95th percentile
	// (invariant 4; default 250ms).
	EnvelopeP95 time.Duration
	// CentralCrash selects the central-crash schedule class: instead
	// of a mirror crash-restart, the central site itself dies at the
	// schedule's crash position and the warm-standby mirror is
	// promoted in its place (invariant 7). Every mirror runs
	// standby-armed in this class.
	CentralCrash bool
}

func (c *ChaosConfig) defaults() {
	if c.Mirrors <= 0 {
		c.Mirrors = 3
	}
	if c.Flights <= 0 {
		c.Flights = 24
	}
	if c.UpdatesPerFlight <= 0 {
		c.UpdatesPerFlight = 40
	}
	if c.EventSize <= 0 {
		c.EventSize = 96
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.MissedRounds <= 0 {
		c.MissedRounds = 3
	}
	if c.EnvelopeP95 <= 0 {
		c.EnvelopeP95 = 250 * time.Millisecond
	}
}

// ChaosResult reports one chaos run.
type ChaosResult struct {
	// Schedule is the fault plan the run executed.
	Schedule faultinject.Schedule
	// Violations are the invariant failures observed (empty = pass).
	Violations []string
	// Replayed is the number of backup events replayed to the
	// crash-restarted mirror at rejoin.
	Replayed int
	// DeltaReplayed is the number of backup events replayed to the
	// lagging mirror at its incremental (delta-mode) rejoin.
	DeltaReplayed int
	// RejoinSnapshots/RejoinDeltas are the central's final rejoin
	// transfer counters by mode: the crash-restarted victim (no cut)
	// must take the snapshot path, the lagging mirror (committed cut
	// within the journal horizon) the delta path.
	RejoinSnapshots, RejoinDeltas uint64
	// Rounds/Commits are the checkpoint protocol's final counters.
	Rounds, Commits uint64
	// P95 is the central update-delay 95th percentile.
	P95 time.Duration
	// StateDigest is an FNV-64a hash of the final central EDE snapshot
	// (seed-deterministic: the replay test compares it across runs).
	StateDigest uint64
	// Faults counts fault-plane injections across all links.
	Faults uint64
	// Engages/Reverts count the adaptation controller's transitions
	// (the overload ramp guarantees at least one engage per run).
	Engages, Reverts uint64
	// StaleDirectives counts regime deliveries the mirrors' appliers
	// rejected at the round watermark (duplicated or reordered
	// control-link deliveries, summed across incarnations).
	StaleDirectives uint64
	// InvalidDirectives counts regime deliveries rejected by the
	// directive checksum (corrupted control-link deliveries, summed
	// across incarnations).
	InvalidDirectives uint64
	// Promotions/PromotionReplayed report the central-crash class:
	// warm-standby promotions performed (1 in that class, 0 otherwise)
	// and the backup-queue events the promotion replayed from the last
	// committed cut.
	Promotions        uint64
	PromotionReplayed uint64
	// CentralEpoch is the final central's promotion epoch (0 = the
	// original central survived the run).
	CentralEpoch uint64
	// Audit is the run's decision log: engage/revert transitions and,
	// in the central-crash class, the promotion entry recording the
	// old and new central identities.
	Audit []obs.AuditEntry
}

// Failed reports whether any invariant was violated.
func (r ChaosResult) Failed() bool { return len(r.Violations) > 0 }

// Report renders the run for humans: schedule, verdict, and the repro
// seed on failure.
func (r ChaosResult) Report() string {
	s := fmt.Sprintf("%s replayed=%d delta-replayed=%d rejoins=%d/%d rounds=%d commits=%d p95=%s faults=%d adapt=%d/%d stale=%d invalid=%d digest=%016x",
		r.Schedule, r.Replayed, r.DeltaReplayed, r.RejoinSnapshots, r.RejoinDeltas,
		r.Rounds, r.Commits, r.P95, r.Faults,
		r.Engages, r.Reverts, r.StaleDirectives, r.InvalidDirectives, r.StateDigest)
	if r.Schedule.CrashCentral {
		s += fmt.Sprintf(" promo=%d replayed=%d epoch=%d", r.Promotions, r.PromotionReplayed, r.CentralEpoch)
	}
	if !r.Failed() {
		return "PASS " + s
	}
	s = "FAIL " + s
	for _, v := range r.Violations {
		s += "\n  violation: " + v
	}
	s += fmt.Sprintf("\n  replay: scripts/chaos_repro.sh %d", r.Schedule.Seed)
	return s
}

// chaosRig is the manually wired cluster under fault injection. It
// mirrors the direct transport's wiring, but each mirror site lives in
// an atomic slot so a crash-restart can swap in a fresh site (volatile
// queues lost) while the central's links keep pointing at "mirror i".
type chaosRig struct {
	cfg   ChaosConfig
	sched faultinject.Schedule
	plane *faultinject.Plane
	reg   *obs.Registry

	// central lives in an atomic slot because the central-crash class
	// replaces it mid-run (warm-standby promotion) while the control
	// uplinks' closures keep routing "to the central" — the same late
	// binding the mirror slots already use.
	central atomic.Pointer[core.Central]
	mirrors []atomic.Pointer[site.Mirror]
	cpus    []*costmodel.CPU // [0] central, [1..] mirrors
	hist    *metrics.Histogram
	audit   *obs.AuditLog

	data     []*faultinject.Link // central → mirror data (partition only)
	ctrlDown []*faultinject.Link // central → mirror control (probabilistic faults)
	ctrlUp   []*faultinject.Link // mirror → central control (probabilistic faults)

	violations []string
	// prevCommitted tracks the last observed cut per backup-queue
	// incarnation: [0] central, [1..] mirrors (reset on crash-restart
	// and on central promotion).
	prevCommitted []vclock.VC

	// Central-crash bookkeeping (driver goroutine only): the committed
	// cut the promotion is held to (invariant 7), and the fed-event
	// count at the promotion instant — the new central's Mirrored
	// counter starts at zero, so waitMirrored measures against it.
	preCrashCut vclock.VC
	fedBase     uint64

	// controller is the central adaptation decision-maker. (Each mirror
	// slot's applier is swapped with the site on crash-restart — the
	// directive watermark is volatile state.)
	controller *adapt.Controller

	// adaptMu guards the install watermarks and violations recorded
	// from applier install callbacks, plus the counters retired from
	// dead incarnations.
	adaptMu        sync.Mutex
	lastInstall    []uint64 // per-slot install-round high-water mark
	adaptViol      []string
	staleRetired   uint64
	invalidRetired uint64
}

func (r *chaosRig) violatef(format string, args ...interface{}) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// cen and mem load the current central incarnation and its membership.
func (r *chaosRig) cen() *core.Central    { return r.central.Load() }
func (r *chaosRig) mem() *core.Membership { return r.cen().Membership() }

// mirror and applier load slot i's current incarnation.
func (r *chaosRig) mirror(i int) *core.MirrorSite { return r.mirrors[i].Load().Site }
func (r *chaosRig) applier(i int) *adapt.Applier  { return r.mirrors[i].Load().Applier }

// newMirror builds one mirror-site incarnation. The control uplink is
// the plane's per-mirror Link, shared across incarnations so the fault
// decision stream continues over a restart, exactly like a network
// path that outlives the host behind it.
func (r *chaosRig) newMirror(i int) *site.Mirror {
	// Each incarnation gets a fresh applier: a crash loses the
	// directive watermark with the rest of volatile state, and the
	// recovery transfer re-delivers the current regime.
	m := site.NewMirror(core.MirrorSiteConfig{
		Model:  chaosModel,
		CPU:    r.cpus[i+1],
		SiteID: uint8(i),
		CtrlUp: r.ctrlUp[i],
		// Central-crash class: every mirror runs standby-armed (journal
		// + sealed cuts), so whichever is the lowest-indexed live site
		// at the crash can be promoted.
		Standby: r.cfg.CentralCrash,
	})
	install := adapt.InstallMirrorRegime(m.Site)
	m.Applier.SetInstall(func(round uint64, reg adapt.Regime) {
		install(round, reg)
		r.noteInstall(i, round)
	})
	return m
}

// noteInstall machine-checks directive versioning end to end: the
// rounds a mirror incarnation actually installs must be strictly
// increasing. A stale or duplicate delivery that makes it past the
// applier's watermark is an invariant violation, not just a counter.
func (r *chaosRig) noteInstall(i int, round uint64) {
	r.adaptMu.Lock()
	defer r.adaptMu.Unlock()
	if round <= r.lastInstall[i] {
		r.adaptViol = append(r.adaptViol, fmt.Sprintf(
			"adapt: mirror %d installed directive round %d at or below watermark %d",
			i, round, r.lastInstall[i]))
		return
	}
	r.lastInstall[i] = round
}

// retireApplier folds a dead incarnation's directive counters into
// the run totals and resets its install watermark: the replacement
// incarnation restarts the monotonicity baseline (its regime arrives
// again through the recovery transfer).
func (r *chaosRig) retireApplier(i int) {
	_, stale, invalid := r.applier(i).Stats()
	r.adaptMu.Lock()
	r.staleRetired += stale
	r.invalidRetired += invalid
	r.lastInstall[i] = 0
	r.adaptMu.Unlock()
}

// directiveStats sums the applier counters across every incarnation,
// dead and live.
func (r *chaosRig) directiveStats() (stale, invalid uint64) {
	r.adaptMu.Lock()
	stale, invalid = r.staleRetired, r.invalidRetired
	r.adaptMu.Unlock()
	for i := range r.mirrors {
		_, s, inv := r.applier(i).Stats()
		stale += s
		invalid += inv
	}
	return stale, invalid
}

// slowCharge books the slow-mirror skew: the victim's CPU pays an
// extra (factor-1)× cost per handled event, the paper's "slow mirror
// site" disturbance without touching wall-clock sleeps.
func (r *chaosRig) slowCharge(i int, base time.Duration, n int) {
	if i != r.sched.SlowMirror {
		return
	}
	r.cpus[i+1].ChargeAsync(time.Duration(r.sched.SlowFactor-1) * base * time.Duration(n))
}

// chaosSchedule derives the run's fault plan from its seed and class.
func chaosSchedule(cfg ChaosConfig) faultinject.Schedule {
	if cfg.CentralCrash {
		return faultinject.NewCentralCrashSchedule(cfg.Seed, cfg.Mirrors)
	}
	return faultinject.NewSchedule(cfg.Seed, cfg.Mirrors)
}

func newChaosRig(cfg ChaosConfig, sched faultinject.Schedule) *chaosRig {
	r := &chaosRig{
		cfg:           cfg,
		sched:         sched,
		reg:           obs.NewRegistry(),
		mirrors:       make([]atomic.Pointer[site.Mirror], cfg.Mirrors),
		hist:          new(metrics.Histogram),
		prevCommitted: make([]vclock.VC, cfg.Mirrors+1),
		lastInstall:   make([]uint64, cfg.Mirrors),
	}
	// The controller is fully constructed before the central exists:
	// its ObserveSite closure runs on control-handling paths. The audit
	// log records its transitions and, in the central-crash class, the
	// promotion entry.
	r.audit = obs.NewAuditLog(0)
	r.controller = adapt.NewController(chaosBaselineRegime, chaosDegradedRegime, nil)
	r.controller.SetAudit(r.audit)
	r.controller.SetMonitorValues(adapt.VarBackup, chaosAdaptPrimary, chaosAdaptSecondary)
	r.plane = faultinject.NewPlane(cfg.Seed, r.reg)
	for i := 0; i <= cfg.Mirrors; i++ {
		r.cpus = append(r.cpus, &costmodel.CPU{})
	}

	links := make([]core.MirrorLink, cfg.Mirrors)
	for i := 0; i < cfg.Mirrors; i++ {
		i := i
		// Data links carry the mirrored stream the framework assumes is
		// delivered in order, exactly once, to live mirrors — so they
		// only ever fail whole (partition/crash), never probabilistically.
		r.data = append(r.data, r.plane.WrapData(fmt.Sprintf("data.%d", i),
			dataFunc(func(es []*event.Event, ref event.Ref) error {
				r.slowCharge(i, chaosModel.EventBase, len(es))
				return r.mirror(i).HandleOwnedBatch(es, ref)
			}), faultinject.Faults{}))
		// Control links tolerate loss, duplication, reordering, and
		// payload damage by protocol design — the schedule's
		// probabilistic faults apply here, in both directions.
		r.ctrlDown = append(r.ctrlDown, r.plane.Wrap(fmt.Sprintf("ctrl.down.%d", i),
			senderFunc(func(e *event.Event) error {
				r.slowCharge(i, chaosModel.ControlCost, 1)
				r.mirror(i).HandleControl(e)
				return nil
			}), sched.CtrlFaults))
		r.ctrlUp = append(r.ctrlUp, r.plane.Wrap(fmt.Sprintf("ctrl.up.%d", i),
			senderFunc(func(e *event.Event) error {
				r.cen().HandleControl(e)
				return nil
			}), sched.CtrlFaults))
		links[i] = core.MirrorLink{Data: r.data[i], Ctrl: r.ctrlDown[i]}
	}

	r.central.Store(core.NewCentral(core.CentralConfig{
		Streams: 1,
		// Manual rounds only: the driver sequences checkpoints against
		// stream positions so the schedule is machine-speed independent.
		// Set at construction: the sending task reads its parameters
		// before waiting for a batch, so a later SetParams would miss the
		// first one, whose default frequency can start a round of its own.
		Params:  core.Params{MaxCoalesce: 1, CheckpointFreq: 1 << 30},
		Model:   chaosModel,
		CPU:     r.cpus[0],
		Main:    core.MainConfig{DelayHist: r.hist},
		Mirrors: links,
		OnMirrorSample: func(site int, s core.Sample) {
			r.controller.ObserveSite(site, s)
		},
	}))
	// Decision point: each round's CHKPT observes the central's own
	// queues and piggybacks whatever regime is current, stamped with
	// the round.
	r.controller.Attach(r.cen())
	for i := 0; i < cfg.Mirrors; i++ {
		r.mirrors[i].Store(r.newMirror(i))
	}
	core.NewMembership(r.cen(), core.MembershipConfig{
		MissedRounds: cfg.MissedRounds,
		// An excluded site's last sample row must not pin the regime:
		// the per-site revert rule considers live sites only.
		OnFailure: func(site int) { r.controller.EvictSite(site) },
	})
	return r
}

// check samples the continuously checkable invariants (1 and the
// structural half of 2). It runs from the driver goroutine only.
func (r *chaosRig) check(stage string) {
	com := r.cen().Backup().Committed()
	if prev := r.prevCommitted[0]; prev != nil && !prev.LessEq(com) {
		r.violatef("%s: central committed cut regressed: %v after %v", stage, com, prev)
	}
	r.prevCommitted[0] = com
	if lp := r.cen().Main().LastProcessed(); com != nil && !com.LessEq(lp) {
		r.violatef("%s: central committed %v beyond its own progress %v", stage, com, lp)
	}
	if err := r.cen().Backup().CheckInvariants(); err != nil {
		r.violatef("%s: central backup: %v", stage, err)
	}
	for i := range r.mirrors {
		m := r.mirror(i)
		mcom := m.Backup().Committed()
		if prev := r.prevCommitted[i+1]; prev != nil && !prev.LessEq(mcom) {
			r.violatef("%s: mirror %d committed cut regressed: %v after %v", stage, i, mcom, prev)
		}
		r.prevCommitted[i+1] = mcom
		if err := m.Backup().CheckInvariants(); err != nil {
			r.violatef("%s: mirror %d backup: %v", stage, i, err)
		}
	}
}

// round runs one checkpoint round and samples the invariants. The
// control loop — broadcast, replies, commit — is synchronous through
// the direct links, so the sample right after sees its effect.
func (r *chaosRig) round(stage string) {
	r.cen().Checkpoint()
	r.check(stage)
}

// setDown partitions (or heals) every link to and from mirror i.
func (r *chaosRig) setDown(i int, down bool) {
	r.data[i].SetDown(down)
	r.ctrlDown[i].SetDown(down)
	r.ctrlUp[i].SetDown(down)
}

// flushCtrl releases reorder holdbacks on every control link so a held
// reply or commit cannot outlive the run.
func (r *chaosRig) flushCtrl() {
	for i := range r.ctrlDown {
		_ = r.ctrlDown[i].Flush()
		_ = r.ctrlUp[i].Flush()
	}
}

// RunChaos executes one seeded chaos run and reports the verdict.
func RunChaos(cfg ChaosConfig) ChaosResult {
	cfg.defaults()
	sched := chaosSchedule(cfg)
	r := newChaosRig(cfg, sched)
	res := ChaosResult{Schedule: sched}
	defer func() {
		for i := range r.mirrors {
			r.mirror(i).Close()
		}
		r.cen().Close()
	}()

	events := BuildEvents(Options{
		Flights:          cfg.Flights,
		UpdatesPerFlight: cfg.UpdatesPerFlight,
		EventSize:        cfg.EventSize,
		Seed:             cfg.Seed,
	})
	n := len(events)
	crashAt := int(sched.CrashAfterFrac * float64(n))
	restartAt := crashAt + int(sched.DownFrac*float64(n))
	victim := sched.CrashMirror

	fed := 0
	for i, e := range events {
		if sched.CrashCentral {
			if i == crashAt {
				// The central site itself dies; the warm-standby mirror
				// is promoted in its place (invariant 7).
				r.promoteCentral(uint64(i))
			}
		} else {
			// Independent checks: a zero down-window schedule makes
			// restartAt == crashAt and both must still run.
			if i == crashAt {
				// The mirror dies: every link to and from it partitions,
				// and whatever its volatile queues held is gone with it.
				r.setDown(victim, true)
			}
			if i == restartAt {
				r.waitMirrored(uint64(i))
				r.excludeVictim()
				res.Replayed = r.restartAndRejoin()
			}
		}
		if err := r.cen().Ingest(e); err != nil {
			r.violatef("feed: event %d/%d rejected: %v", i, n, err)
			break
		}
		fed++
		if (i+1)%cfg.CheckpointEvery == 0 {
			// Let the pipeline catch up to the feed before the round:
			// a checkpoint against a not-yet-populated backup is a
			// no-op and would starve the failure detector of rounds.
			r.waitMirrored(uint64(fed))
			r.round("round")
		}
	}

	res.DeltaReplayed = r.deltaLagScenario(&fed)
	r.calmTail(fed)
	r.finish(&res)
	stats := r.cen().RejoinStats()
	res.RejoinSnapshots, res.RejoinDeltas = stats.Snapshots, stats.Deltas
	r.adaptMu.Lock()
	r.violations = append(r.violations, r.adaptViol...)
	r.adaptMu.Unlock()
	res.Violations = r.violations
	res.Rounds, res.Commits = r.cen().Stats().ChkptRounds, r.cen().Stats().ChkptCommits
	res.P95 = r.hist.Percentile(95)
	res.Faults = r.faultCount()
	res.Engages, res.Reverts = r.controller.Transitions()
	res.StaleDirectives, res.InvalidDirectives = r.directiveStats()
	res.Promotions, res.PromotionReplayed = r.cen().PromotionStats()
	res.CentralEpoch = r.cen().Epoch()
	res.Audit = r.audit.Entries()
	return res
}

// deltaLagScenario exercises invariant 6: a healthy mirror (never the
// crash victim — its state must stay intact) is partitioned until the
// failure detector excludes it, the stream advances past it with fresh
// events and committed cuts, and it then rejoins presenting the
// checkpoint cut it had committed before the partition. The cut sits
// within the central mutation journal's horizon, so the recovery
// transfer must take the delta path; byte-exact convergence of the
// delta-rejoined replica is then checked by invariant 3 over the
// drained cluster. Returns the backup events replayed at the rejoin.
func (r *chaosRig) deltaLagScenario(fed *int) int {
	lag := 0
	if lag == r.sched.CrashMirror {
		lag = 1
	}
	if lag >= len(r.mirrors) {
		return 0 // no healthy peer to lag in a 1-mirror cluster
	}
	// Control faults may have spuriously excluded the chosen site
	// already; an excluded site receives no COMMIT broadcasts, so
	// re-admit everyone before waiting for its cut to land.
	r.rejoinAll("delta-prep")
	m := r.mirror(lag)
	// The site must hold a committed cut to present; control faults can
	// have eaten every COMMIT so far, so drive rounds until one lands.
	for attempt := 0; attempt < 200 && m.Backup().Committed() == nil; attempt++ {
		r.round("delta-cut")
		r.flushCtrl()
	}
	if m.Backup().Committed() == nil {
		r.violatef("delta: mirror %d never committed a cut to rejoin from", lag)
		return 0
	}

	// Partition the site and drive rounds until the detector excludes
	// it, unblocking commits for the rest of the cluster.
	r.setDown(lag, true)
	lagOut := func() bool { return !r.mem().Alive(lag) }

	// The world advances past the lagging site: fresh mutations and
	// fresh committed cuts, all journaled against the cut it holds.
	extra := BuildEvents(Options{
		Flights:          r.cfg.Flights,
		UpdatesPerFlight: 4,
		EventSize:        48,
		Seed:             r.cfg.Seed + 202,
	})
	next := 0
	feedExtra := func(upTo int) bool {
		for ; next < upTo; next++ {
			if err := r.cen().Ingest(extra[next]); err != nil {
				r.violatef("delta: event %d/%d rejected: %v", next, len(extra), err)
				return false
			}
			*fed++
			if (next+1)%r.cfg.CheckpointEvery == 0 {
				r.waitMirrored(uint64(*fed))
				r.round("delta-advance")
			}
		}
		return true
	}
	// A round against an empty central backup is a no-op the failure
	// detector never sees, and the delta-cut commit above may have
	// trimmed everything: put the first fresh mutation in flight before
	// counting missed rounds, so the verdict does not hang on whether
	// the mirrors happened to be fully caught up.
	if !feedExtra(1) {
		return 0
	}
	r.waitMirrored(uint64(*fed))
	for attempt := 0; !lagOut() && attempt < r.cfg.MissedRounds+8; attempt++ {
		r.round("delta-exclusion")
	}
	if !lagOut() {
		r.violatef("delta: failure detector reported %v, missing lagging mirror %d",
			r.mem().Failed(), lag)
	}
	if !feedExtra(len(extra)) {
		return 0
	}
	r.waitMirrored(uint64(*fed))
	r.round("delta-advance")

	// Heal the links and rejoin incrementally from the committed cut.
	r.setDown(lag, false)
	before := r.cen().RejoinStats()
	replayed, err := r.mem().RejoinSince(lag, m.Backup().Committed())
	if err != nil {
		r.violatef("delta: rejoin mirror %d: %v", lag, err)
		return 0
	}
	if after := r.cen().RejoinStats(); after.Deltas != before.Deltas+1 {
		r.violatef("delta: rejoin of lagging mirror %d fell back to snapshot mode "+
			"(cut should be within the journal horizon)", lag)
	}
	r.check("delta-rejoin")
	return replayed
}

// calmTail is the downslope of the Figure-8-style load ramp: the
// overload subsides and a fixed trickle of small events keeps
// checkpoint rounds running (a round against an empty backup queue is
// a no-op) while every site reports calm samples, driving the
// controller's per-site revert rule. The tail length is fixed so the
// ingested-event count — and with it the replayed StateDigest — stays
// a pure function of the seed.
func (r *chaosRig) calmTail(fed int) {
	tail := BuildEvents(Options{
		Flights:          chaosCalmTail,
		UpdatesPerFlight: 1,
		EventSize:        32,
		Seed:             r.cfg.Seed + 101,
	})
	for i, e := range tail {
		if err := r.cen().Ingest(e); err != nil {
			r.violatef("calm: event %d/%d rejected: %v", i, len(tail), err)
			return
		}
		fed++
		r.waitMirrored(uint64(fed))
		r.round("calm")
		r.flushCtrl()
	}
	// The ramp itself is deterministic: the first checkpoint round of
	// every run observes CheckpointEvery backed-up events at the
	// central, which is over the primary threshold.
	if eng, _ := r.controller.Transitions(); eng == 0 {
		r.violatef("adapt: overload ramp never engaged the degraded regime")
	}
}

// waitMirrored blocks until the sending task has fanned out (and
// backup-appended) n events, i.e. the async pipeline has caught up to
// the driver's feed position. n is the cumulative fed count; a
// promoted central's counter starts at zero, so the count at the
// promotion instant (fedBase) is subtracted out.
func (r *chaosRig) waitMirrored(n uint64) {
	if n < r.fedBase {
		return
	}
	n -= r.fedBase
	deadline := time.Now().Add(20 * time.Second)
	for r.cen().Stats().Mirrored < n {
		if time.Now().After(deadline) {
			r.violatef("feed: pipeline stuck at %d/%d mirrored events",
				r.cen().Stats().Mirrored, n)
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// excludeVictim drives checkpoint rounds until the failure detector
// removes the silent mirror from the quorum, unblocking commits for
// the healthy sites.
func (r *chaosRig) excludeVictim() {
	// The victim misses one round per attempt; the detector fires after
	// MissedRounds consecutive misses. A couple of extra attempts cover
	// rounds skipped on an empty backup. Checking for the victim
	// specifically matters: control-link faults may have spuriously
	// excluded a healthy mirror already, so a bare "anyone failed?"
	// check could pass without the victim ever leaving the quorum.
	victimOut := func() bool { return !r.mem().Alive(r.sched.CrashMirror) }
	for attempt := 0; !victimOut() && attempt < r.cfg.MissedRounds+8; attempt++ {
		r.round("exclusion")
	}
	if !victimOut() {
		r.violatef("exclusion: failure detector reported %v, missing victim %d",
			r.mem().Failed(), r.sched.CrashMirror)
	}
}

// rejoinAll re-admits every currently excluded site. Control-link
// faults can spuriously exclude a live mirror (a dropped reply is
// indistinguishable from a dead site — that's the point of a miss
// budget), and the restarted victim can be excluded again before the
// faults quiesce; the end-state invariants are stated over the
// converged cluster, so everyone gets re-admitted first.
func (r *chaosRig) rejoinAll(stage string) {
	for _, i := range r.mem().Failed() {
		if _, err := r.mem().Rejoin(i); err != nil {
			r.violatef("%s: rejoin mirror %d: %v", stage, i, err)
		}
	}
}

// restartAndRejoin replaces the dead site with a fresh one (its
// volatile state is lost — this is a crash-restart, not a resume),
// heals its links, and re-admits it through the recovery transfer.
func (r *chaosRig) restartAndRejoin() int {
	victim := r.sched.CrashMirror
	r.retireApplier(victim)
	old := r.mirrors[victim].Swap(r.newMirror(victim))
	old.Site.Close()
	// A fresh incarnation starts a fresh backup queue: the monotonicity
	// baseline resets with it.
	r.prevCommitted[victim+1] = nil
	r.setDown(victim, false)
	replayed, err := r.mem().Rejoin(victim)
	if err != nil {
		r.violatef("rejoin: %v", err)
		return 0
	}
	r.rejoinAll("restart")
	r.check("rejoin")
	return replayed
}

// promoteCentral executes the central-crash schedule class: the
// current central dies at its crash position and the warm-standby
// mirror 0 is promoted in its place. The decisions are the deployed
// ones: every site's core.Takeover node, stepped by direct calls (no
// announcement consumes a fault decision). Two harness-only additions:
// the pipeline is quiesced at the crash position first (so the
// delivered-event set, and with it the replayed StateDigest, stays a
// pure function of the seed), and a checkpoint commit is forced before
// the crash so every seed demonstrates zero committed-event loss
// rather than vacuously passing with a nil pre-crash cut. fed is the
// cumulative fed-event count at the crash instant. It returns what the
// adoption step produced (nil when the promotion could not run).
func (r *chaosRig) promoteCentral(fed uint64) *site.Promoted {
	old := r.cen()
	r.waitMirrored(fed)
	// Force a committed cut before the crash: control faults may have
	// eaten every COMMIT so far, and invariant 7's lossless check is
	// stated against the last cut committed under the old central.
	for attempt := 0; attempt < 200 && old.Backup().Committed() == nil; attempt++ {
		r.round("pre-crash")
		r.flushCtrl()
	}
	preCut := old.Backup().Committed()
	if preCut == nil {
		r.violatef("pre-crash: no checkpoint cut committed before the central crash")
	}
	r.preCrashCut = preCut
	// Control faults may have spuriously excluded the standby, and the
	// chaos scenarios that follow assume a full quorum, so re-admit
	// everyone while the old central is still alive to serve the
	// transfer.
	r.rejoinAll("pre-crash")

	// Crash. Drain first: the sending task's exit path flushes the
	// outbox rings over still-up links, so draining before partitioning
	// pins the delivered-event set to the feed position (seed-exact);
	// protocol-wise the crash is still abrupt — no handoff round runs.
	old.Drain()
	for i := range r.mirrors {
		r.setDown(i, true)
	}
	old.Close()

	// Failure detection: the standby's node sees no new round for its
	// whole budget (the first tick baselines) and asks for a probe; the
	// closed central fails it, and the node promotes.
	const standby = 0
	standbySite := r.mirrors[standby].Load()
	node := &core.Takeover{Site: standby, Peers: len(r.mirrors), Standby: true, Budget: r.cfg.MissedRounds}
	lastRound := standbySite.Site.LastRound()
	var promoted []core.TakeoverEffect
	for t := 0; t < r.cfg.MissedRounds+2 && len(promoted) == 0; t++ {
		if e := node.Step(core.TakeoverInput{Kind: core.TakeoverTick, LastRound: lastRound}); len(e) == 1 && e[0].Kind == core.TakeoverProbe {
			promoted = node.Step(core.TakeoverInput{Kind: core.TakeoverProbed, LastRound: lastRound})
		}
	}
	if len(promoted) != 2 || promoted[0].Kind != core.TakeoverPromote || promoted[1].Kind != core.TakeoverAnnounce {
		r.violatef("promotion: the standby's takeover node never promoted")
		return nil
	}
	epoch := promoted[0].Epoch

	// Adopt: the shared adoption step builds the new central on the
	// standby's local view in the node's epoch, with every slot of a
	// fresh Membership excluded.
	links := make([]core.MirrorLink, len(r.mirrors))
	for i := range r.mirrors {
		links[i] = core.MirrorLink{Data: r.data[i], Ctrl: r.ctrlDown[i]}
	}
	p := standbySite.Promote(epoch, core.CentralConfig{
		Model:   chaosModel,
		CPU:     r.cpus[standby+1],
		Mirrors: links,
		Obs:     r.reg,
		OnMirrorSample: func(site int, s core.Sample) {
			r.controller.ObserveSite(site, s)
		},
	}, core.MembershipConfig{
		MissedRounds: r.cfg.MissedRounds,
		OnFailure:    func(site int) { r.controller.EvictSite(site) },
	})
	nc, nm := p.Central, p.Central.Membership()
	nc.SetParams(false, 1, 1<<30)
	r.controller.Attach(nc)
	r.central.Store(nc)
	// The new backup queue is a fresh incarnation seeded at the
	// standby's cut; the new Mirrored counter starts at zero.
	r.prevCommitted[0] = nil
	r.fedBase = fed

	// Invariant 7, promotion-instant half: the adopted state covers the
	// last committed cut (nothing durable lost) and round numbering
	// restarts strictly above everything the old epoch stamped.
	if preCut != nil && !preCut.LessEq(p.Anchor) {
		r.violatef("promotion: adopted state %v below last committed cut %v", p.Anchor, preCut)
	}
	if nc.Epoch() != old.Epoch()+1 {
		r.violatef("promotion: epoch %d, want %d", nc.Epoch(), old.Epoch()+1)
	}
	if checkpoint.EpochBase(nc.Epoch()) <= p.RoundFloor {
		r.violatef("promotion: epoch base %d not above old epoch's round watermark %d",
			checkpoint.EpochBase(nc.Epoch()), p.RoundFloor)
	}

	// Re-point the survivors: the promoted node's announcement reaches
	// every (still excluded) slot's node, and each follow effect is a
	// rejoin from the cut site.RejoinCut allows. The standby's own slot
	// restarts as a fresh mirror (its main unit now belongs to the
	// central), whose empty cut takes the full transfer.
	for i := range r.mirrors {
		r.setDown(i, false)
	}
	r.retireApplier(standby)
	r.mirrors[standby].Store(r.newMirror(standby))
	standbySite.Site.Close() // detached: stops aux plumbing only, the main unit lives on
	r.prevCommitted[standby+1] = nil
	ann := core.TakeoverAnnouncement{Epoch: epoch, Addr: standbySite.Name, Anchor: p.Anchor}
	for i := range r.mirrors {
		follower := &core.Takeover{Site: i, Peers: len(r.mirrors), Budget: r.cfg.MissedRounds}
		e := follower.Step(core.TakeoverInput{Kind: core.TakeoverAnnounced, LastRound: r.mirror(i).LastRound(), Ann: ann})
		if len(e) != 1 || e[0].Kind != core.TakeoverFollow {
			r.violatef("promotion: mirror %d did not follow the takeover announcement", i)
		} else if _, err := nm.RejoinSince(i, site.RejoinCut(r.mirror(i), ann.Anchor)); err != nil {
			r.violatef("promotion: rejoin mirror %d: %v", i, err)
		}
	}
	r.check("promotion")
	r.audit.Append(obs.AuditEntry{
		Action:     "promotion",
		Site:       standbySite.Name,
		OldCentral: "central",
		NewCentral: standbySite.Name,
		Epoch:      nc.Epoch(),
	})
	return p
}

// finish drains the pipeline, waits for every mirror to converge on
// the central progress, runs final checkpoint rounds until the central
// backup is fully trimmed, and evaluates the end-state invariants.
func (r *chaosRig) finish(res *ChaosResult) {
	r.cen().Drain()
	// Whoever the detector excluded along the way comes back now: the
	// rejoin transfer (snapshot + retained backup) covers everything an
	// excluded site missed, so convergence is still byte-exact.
	r.rejoinAll("final")
	centralLP := r.cen().Main().LastProcessed()
	deadline := time.Now().Add(20 * time.Second)
	for i := range r.mirrors {
		for !centralLP.LessEq(r.mirror(i).Main().LastProcessed()) {
			if time.Now().After(deadline) {
				r.violatef("drain: mirror %d stuck at %v, central at %v",
					i, r.mirror(i).Main().LastProcessed(), centralLP)
				break
			}
			time.Sleep(time.Millisecond)
		}
		r.mirror(i).Drain()
	}

	// Final rounds: control faults can drop a reply or a commit, so one
	// round is not guaranteed to land — later rounds subsume earlier
	// ones until the backup trims through the last event. The bound is
	// far beyond any plausible unlucky streak at ≤10% per-class rates.
	for attempt := 0; attempt < 200 && r.cen().Backup().Len() > 0; attempt++ {
		r.round("final")
		r.flushCtrl()
	}
	if got := r.cen().Backup().Len(); got > 0 {
		r.violatef("final: central backup retains %d events after 200 rounds", got)
	}
	costmodel.WaitIdle(r.cpus...)

	// Invariant 3: every replica — including the crash-restarted one —
	// has converged to the central EDE state byte-for-byte.
	want := r.cen().Main().Engine().State().Snapshot()
	h := fnv.New64a()
	_, _ = h.Write(want)
	res.StateDigest = h.Sum64()
	for i := range r.mirrors {
		m := r.mirror(i)
		got := m.Main().Engine().State().Snapshot()
		if string(got) != string(want) {
			r.violatef("convergence: mirror %d snapshot differs from central (%d vs %d bytes)",
				i, len(got), len(want))
		}
		// End-state half of invariant 2: with the stream drained, no
		// mirror's committed cut may exceed what it actually processed.
		if com := m.Backup().Committed(); com != nil && !com.LessEq(m.Main().LastProcessed()) {
			r.violatef("final: mirror %d committed %v beyond its progress %v",
				i, com, m.Main().LastProcessed())
		}
	}

	// Invariant 4: the central path never stalled on the dead mirror.
	if r.hist.Count() == 0 {
		r.violatef("latency: no update-delay samples recorded (envelope check vacuous)")
	}
	if p95 := r.hist.Percentile(95); p95 > r.cfg.EnvelopeP95 {
		r.violatef("latency: central update-delay p95 %s exceeds envelope %s", p95, r.cfg.EnvelopeP95)
	}

	// Invariant 5: regime convergence. Control faults can have dropped
	// the last piggybacked delivery to any site, and a transition can
	// have been decided on a reply that arrived after the final round's
	// CHKPT went out — PublishDirective refreshes the directive
	// (allocating a new round when it changed) and re-broadcasts until
	// every applier converges; the round watermark makes the redundant
	// deliveries harmless.
	for attempt := 0; attempt < 200 && !r.regimesConverged(); attempt++ {
		r.cen().PublishDirective()
		r.flushCtrl()
	}
	if !r.regimesConverged() {
		want := r.controller.Current()
		for i := range r.mirrors {
			reg, round, ok := r.applier(i).Current()
			id, _, _ := r.mirror(i).Regime()
			if !ok || reg.ID != want.ID || id != want.ID {
				r.violatef("adapt: mirror %d regime applier=%d site=%d (round %d, have=%v) != central %d after drain",
					i, reg.ID, id, round, ok, want.ID)
			}
		}
	}

	// Invariant 7, end-state half: the promotion lost nothing durable
	// and never regressed numbering. The drained cluster's final
	// committed cut must cover the cut committed before the crash, and
	// the promotion epoch's rounds must have reached the cluster: some
	// mirror observed a round at or above the epoch base. (Per-slot
	// would be too strong — a site spuriously excluded through the calm
	// tail and rejoined with a fresh backup may legitimately see no
	// further round before the stream ends; the per-incarnation CAS-max
	// watermarks and noteInstall monotonicity cover no-regression.)
	if r.sched.CrashCentral {
		if r.preCrashCut != nil {
			if com := r.cen().Backup().Committed(); com == nil || !r.preCrashCut.LessEq(com) {
				r.violatef("promotion: final committed cut %v does not cover pre-crash cut %v",
					com, r.preCrashCut)
			}
		}
		base := checkpoint.EpochBase(r.cen().Epoch())
		var maxRound uint64
		for i := range r.mirrors {
			if lr := r.mirror(i).LastRound(); lr > maxRound {
				maxRound = lr
			}
		}
		if maxRound < base {
			r.violatef("promotion: no mirror observed a round in epoch %d (max round %d < epoch base %d)",
				r.cen().Epoch(), maxRound, base)
		}
	}
}

// regimesConverged reports whether every mirror's applier — and the
// site it installs into — carries the central controller's current
// regime ID.
func (r *chaosRig) regimesConverged() bool {
	want := r.controller.Current().ID
	for i := range r.mirrors {
		reg, _, ok := r.applier(i).Current()
		if !ok || reg.ID != want {
			return false
		}
		if id, _, _ := r.mirror(i).Regime(); id != want {
			return false
		}
	}
	return true
}

// faultCount sums the plane's injection counters across all links.
func (r *chaosRig) faultCount() uint64 {
	var total uint64
	for i := range r.data {
		total += r.data[i].Injected() + r.ctrlDown[i].Injected() + r.ctrlUp[i].Injected()
	}
	return total
}
