package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/obs/linktelem"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/statedelta"
	"adaptmirror/internal/vclock"
)

// MirrorFunc decides, per event, what (if anything) to mirror. The
// default applies the installed semantic rules; set_mirror() replaces
// it (paper Table 1). The function may transform or suppress (return
// nil) the event; it owns the passed event.
type MirrorFunc func(sem *Semantics, e *event.Event) *event.Event

// FwdFunc decides what the local main unit receives for each incoming
// event; set_fwd() replaces the default (identity).
type FwdFunc func(e *event.Event) *event.Event

// DefaultMirrorFunc applies the semantic rule engine.
func DefaultMirrorFunc(sem *Semantics, e *event.Event) *event.Event {
	return sem.FilterForMirror(e)
}

// SimpleMirrorFunc mirrors every event unmodified (the paper's
// "simple mirroring" baseline, ignoring all semantic rules).
func SimpleMirrorFunc(_ *Semantics, e *event.Event) *event.Event { return e }

// DefaultFwdFunc forwards every event unmodified.
func DefaultFwdFunc(e *event.Event) *event.Event { return e }

// MirrorLink is the central site's connection to one mirror site: a
// data channel for mirrored events and a control channel for the
// checkpoint/adaptation protocol. An optional Filter restricts which
// events the site receives — the paper notes that "update events must
// be mirrored both to sites that replicate local state and to sites
// that need such events for functionally different tasks"; a filtered
// link serves the latter (e.g. a weather-analytics site receiving only
// weather events).
type MirrorLink struct {
	Data DataSender
	Ctrl Sender
	// Filter, when non-nil, selects the events this site receives;
	// nil mirrors everything.
	Filter func(*event.Event) bool
}

// CentralConfig parameterizes a central site.
type CentralConfig struct {
	// Streams is the number of input streams (the vector timestamp
	// width). Must cover every Stream index used by sources.
	Streams int
	// Params are the initial mirroring parameters (init()).
	Params Params
	// Model is the CPU cost model charged on the mirroring path.
	Model costmodel.Model
	// CPU is the central node's virtual processor, shared by the
	// auxiliary unit's tasks and the main unit's EDE. Nil spins the
	// real CPU for charges.
	CPU *costmodel.CPU
	// AuxCPU, when non-nil, hosts the auxiliary unit's mirroring and
	// checkpointing work on its own processor — the paper's planned
	// network-co-processor split ("splitting the functionality of the
	// 'auxiliary' units between a host node and a NI-resident
	// processing unit"). Nil keeps everything on CPU.
	AuxCPU *costmodel.CPU
	// Main configures the central main unit (EDE).
	Main MainConfig
	// Mirrors are the links to the mirror sites.
	Mirrors []MirrorLink
	// NoMirror disables the mirroring path entirely (the "no
	// mirroring" baseline of Figure 4): events are only forwarded to
	// the local main unit.
	NoMirror bool
	// SendBatch bounds how many ready events the sending task removes
	// per iteration when coalescing is off (default DefaultSendBatch).
	// When coalescing is on, MaxCoalesce bounds the batch instead, so
	// a coalesced event never represents more raw events than the
	// configured limit.
	SendBatch int
	// OutboxDepth bounds each mirror link's outbox ring in events
	// (default DefaultOutboxDepth). When a link stalls long enough to
	// fill its ring, the oldest queued events are shed and accounted
	// in LinkStats — the slow site degrades alone.
	OutboxDepth int
	// DeltaHorizon is how many committed checkpoint cuts the central
	// EDE's mutation journal retains for incremental mirror rejoin
	// (0 uses ede.DefaultJournalHorizon). A rejoiner whose committed
	// cut falls within the horizon receives only the flights that
	// mutated past it; older or unknown cuts fall back to the full
	// snapshot. Negative disables journaling entirely.
	DeltaHorizon int
	// OnMirrorSample, when non-nil, receives the monitored-variable
	// samples mirror sites piggyback on their checkpoint replies,
	// together with the reporting site's index (the reply's Stream).
	// The adaptation controller keys its per-site last-sample table on
	// it, so N-1 idle mirrors cannot revert the regime while one site
	// is still overloaded.
	OnMirrorSample func(site int, s Sample)
	// Obs, when non-nil, is the registry the site's instruments are
	// exported through (queue depths, fan-out counters, checkpoint
	// rounds). Site labels every series.
	Obs *obs.Registry
	// Site is the label value identifying this site on Obs (default
	// "central").
	Site string
	// Tracer, when non-nil, receives event-lifecycle stage latencies:
	// the sending task stamps ready/forward instants on each event and
	// the fan-out and checkpoint paths record their stages.
	Tracer *obs.Tracer
	// Resume, when non-nil, builds this central as the warm-standby
	// promotion of a failed one: the site adopts the standby mirror's
	// main unit (EDE state, mutation journal, processed watermark),
	// seeds its backup queue with the standby's retained events past
	// the last committed cut, resumes the stamping clock past every
	// event the standby admitted, restamps checkpoint rounds above the
	// old central's watermark, and restores the last adaptation
	// directive for idempotent re-broadcast. See MirrorSite.Promote.
	Resume *ResumeState
}

// Central is the central site: the primary mirror. Its auxiliary unit
// runs the receiving, sending, and control tasks; its main unit runs
// the EDE and emits state updates to regular clients.
type Central struct {
	cfg    CentralConfig
	sem    *Semantics
	params *paramBox
	ready  *queue.Ready
	backup *queue.Backup
	main   *MainUnit
	coord  *checkpoint.Coordinator

	ingestMu     sync.RWMutex
	in           chan *event.Event
	ingestClosed bool

	// fns holds the installed mirroring and forwarding functions; an
	// atomic pointer lets the sending task load them without taking a
	// lock on every batch.
	fns atomic.Pointer[centralFns]

	// senders are the per-mirror-link fan-out pipelines (nil when
	// NoMirror is set).
	senders  []*linkSender
	senderWG sync.WaitGroup

	// telem smooths the senders' cumulative counters into per-round
	// wire telemetry, ticked once per checkpoint round (nil when
	// NoMirror is set). It backs the VarWireBytes / VarOutboxDepth
	// monitored variables and the link_wire_* gauge families.
	telem *linktelem.Sampler

	// sendMu makes the backup-queue append and the outbox fan-out of a
	// batch atomic with respect to mirror recovery: a recovery snapshot
	// taken under sendMu sees either none or all of a batch, so the
	// snapshot + backup replay + post-readmit fan-out covers every
	// mirrored event exactly once.
	sendMu sync.Mutex

	piggyMu   sync.Mutex
	piggyback func() []byte
	// lastDirective/lastDirectiveRound retain the most recent
	// piggybacked adaptation directive and the checkpoint round that
	// carried it, for recovery snapshots and standalone re-broadcast.
	lastDirective      []byte
	lastDirectiveRound uint64

	chkptTrigger chan struct{}
	ctrlStop     chan struct{}

	// membership is the current public handle on the coordinator's
	// quorum (nil until NewMembership).
	membership atomic.Pointer[Membership]

	received  atomic.Uint64
	mirrored  atomic.Uint64 // events sent to each mirror (per-mirror count)
	mirroredW atomic.Uint64 // weighted raw events represented by mirrored ones
	forwarded atomic.Uint64

	// fieldDeltas, when set, makes the sending task rewrite mirrored
	// data events into framed per-flight field deltas (the field-delta
	// mirroring regime, adapt.Regime.FieldDeltas).
	fieldDeltas atomic.Bool

	// Rejoin transfer accounting, by recovery mode (recovery.go).
	rejoinSnapshots     atomic.Uint64
	rejoinDeltas        atomic.Uint64
	rejoinSnapshotBytes atomic.Uint64
	rejoinDeltaBytes    atomic.Uint64

	// Promotion provenance (immutable after construction): the epoch
	// this central stamps rounds in (0 for an original central), how
	// many promotions it performed (1 when built from a ResumeState),
	// and how many backup-queue events the promotion replayed.
	epoch             uint64
	promotions        uint64
	promotionReplayed uint64

	pipeWG    sync.WaitGroup // receiving + sending tasks
	ctrlWG    sync.WaitGroup // control task
	drainOnce sync.Once
	closeOnce sync.Once
}

// ingestBuffer is the depth of the channel between Ingest callers and
// the receiving task. It smooths bursts and bounds nothing: the
// receiving task empties it into the unbounded ready queue.
const ingestBuffer = 8192

// receiveRun bounds how many already-buffered events the receiving task
// stamps and hands to the ready queue as one run.
const receiveRun = 256

// NewCentral builds and starts a central site.
func NewCentral(cfg CentralConfig) *Central {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.AuxCPU == nil {
		cfg.AuxCPU = cfg.CPU
	}
	if cfg.SendBatch <= 0 {
		cfg.SendBatch = DefaultSendBatch
	}
	if cfg.OutboxDepth <= 0 {
		cfg.OutboxDepth = DefaultOutboxDepth
	}
	// The main unit shares the central node's processor, and its
	// inbound queue back-pressures the sending task so the auxiliary
	// unit cannot run unboundedly ahead of the EDE (on a real node
	// the two contend for the same cycles).
	cfg.Main.EDE.CPU = cfg.CPU
	if cfg.Main.QueueCap == 0 {
		cfg.Main.QueueCap = 8
	}
	if cfg.Site == "" {
		cfg.Site = "central"
	}
	cfg.Main.Obs = cfg.Obs
	cfg.Main.Site = cfg.Site
	cfg.Main.Tracer = cfg.Tracer
	c := &Central{
		cfg:    cfg,
		sem:    NewSemantics(),
		params: newParamBox(cfg.Params),
		ready:  queue.NewReady(0),
		backup: queue.NewBackup(),
		in:     make(chan *event.Event, ingestBuffer),
		// Deep buffer: the sending task can mirror hundreds of events
		// between scheduler yields, and every earned trigger must reach
		// the coordinator (frequency is defined in events, not wall
		// time, and so is the open round's deferral budget).
		chkptTrigger: make(chan struct{}, 4096),
		ctrlStop:     make(chan struct{}),
	}
	if res := cfg.Resume; res != nil && res.Main != nil {
		// Promotion: adopt the standby's main unit whole. Its EDE state
		// already holds every event the standby processed, its
		// lastProcessed watermark keeps checkpoint votes honest (a fresh
		// unit would vote zero progress and let a commit regress below
		// the adopted state), and its mutation journal — sealed at the
		// cluster's committed cuts — keeps serving rejoin deltas to
		// survivors.
		c.main = res.Main
	} else {
		c.main = NewMainUnit(cfg.Main)
	}
	c.fns.Store(&centralFns{mirror: DefaultMirrorFunc, fwd: DefaultFwdFunc, batch: (*Semantics).FilterBatch})
	if cfg.DeltaHorizon >= 0 && !c.main.Engine().State().JournalEnabled() {
		// The mutation journal starts covering now (nil watermark =
		// everything from the first event), sealing one entry per
		// committed checkpoint cut via the coordinator's OnCommit. An
		// adopted standby main unit usually arrives with its journal
		// already on (and its history intact); one promoted from a
		// non-standby mirror starts covering at its processed watermark.
		since := vclock.VC(nil)
		if cfg.Resume != nil && cfg.Resume.Main != nil {
			since = c.main.LastProcessed()
		}
		c.main.Engine().State().EnableJournal(cfg.DeltaHorizon, since)
	}
	if res := cfg.Resume; res != nil {
		c.epoch = res.Epoch
		c.promotions = 1
		c.promotionReplayed = uint64(len(res.Events))
		// Replay the standby's backup queue from the last committed cut:
		// the committed watermark carries over so cut numbering never
		// regresses, and the retained suffix (every event past the cut)
		// re-enters the queue for future rounds to commit and trim. The
		// events need no re-fan-out — their effects are already in the
		// adopted state, which survivor rejoin transfers carry over.
		if res.Cut != nil {
			c.backup.Commit(res.Cut)
		}
		for _, e := range res.Events {
			c.backup.Append(e)
		}
		if len(res.Directive) > 0 {
			c.lastDirective = append([]byte(nil), res.Directive...)
			c.lastDirectiveRound = res.DirectiveRound
		}
	}
	// The central main unit participates in checkpointing directly:
	// CHKPT events reach it through Broadcast and its replies go
	// straight back to the coordinator.
	mainPart := &checkpoint.Main{
		LastProcessed: c.main.LastProcessed,
		Reply: func(e *event.Event) {
			// The reserved participant identity keeps the central vote
			// distinct from mirror 0's in the coordinator's per-site
			// reply accounting (mirrors stamp their SiteID).
			e.Stream = checkpoint.CentralParticipant
			c.coord.OnReply(e)
		},
	}
	c.coord = &checkpoint.Coordinator{
		Propose: func() vclock.VC { return c.backup.Last() },
		Broadcast: func(e *event.Event) {
			for i, m := range cfg.Mirrors {
				if !c.coord.Alive(i) {
					continue
				}
				_ = m.Ctrl.Submit(e.Clone())
			}
			mainPart.OnControl(e.Clone())
		},
		OnCommit: func(ts vclock.VC) {
			c.backup.Commit(ts)
			// Each committed cut is a position a mirror may later rejoin
			// from; seal it with the mutation journal so the delta plane
			// can serve exactly the suffix past it.
			c.main.Engine().State().SealCut(ts)
		},
		Participants: len(cfg.Mirrors) + 1,
		Piggyback:    c.takePiggyback,
		// A trigger owed to a closing round goes back to the control
		// task, since rounds close on reply and exclusion paths that
		// must not broadcast under their callers' locks.
		Owed: c.trigger,
	}
	if res := cfg.Resume; res != nil {
		// Rounds restart strictly above both the promotion epoch's base
		// and everything the standby saw the old central stamp, so
		// survivor-side directive watermarks accept the new central's
		// directives and stragglers addressed to the old coordinator
		// are rejected by the floor.
		floor := checkpoint.EpochBase(res.Epoch)
		if res.RoundFloor > floor {
			floor = res.RoundFloor
		}
		c.coord.Resume(floor)
	}
	if !cfg.NoMirror {
		for i, m := range cfg.Mirrors {
			c.senders = append(c.senders,
				newLinkSender(i, m, cfg.OutboxDepth, cfg.AuxCPU, cfg.Model, c.coord.Alive, cfg.Obs, cfg.Tracer))
		}
		for _, s := range c.senders {
			c.senderWG.Add(1)
			go s.run(&c.senderWG)
		}
		c.telem = linktelem.New(len(c.senders))
		c.telem.Register(cfg.Obs)
	}
	c.registerMetrics()
	if cfg.Resume != nil {
		c.primeTelemetry()
	}

	c.pipeWG.Add(2)
	go c.receivingTask()
	go c.sendingTask()
	c.ctrlWG.Add(1)
	go c.controlTask()
	return c
}

// registerMetrics exposes the site's counters, queue depths, and
// checkpoint instrumentation on the configured registry (a nil one
// ignores them), and hooks the round latency into registry and tracer.
func (c *Central) registerMetrics() {
	r := c.cfg.Obs
	tracer := c.cfg.Tracer
	site := obs.L("site", c.cfg.Site)
	snapshot, delta := obs.L("mode", "snapshot"), obs.L("mode", "delta")
	r.Func(famCentralReceived, obs.Load(&c.received), site)
	r.Func(famCentralForwarded, obs.Load(&c.forwarded), site)
	r.Func(famCentralMirrored, obs.Load(&c.mirrored), site)
	r.Func(famCentralMirroredW, obs.Load(&c.mirroredW), site)
	r.Func(famReadyDepth, func() float64 { return float64(c.ready.Len()) }, site)
	registerBackup(r, c.backup, site)
	r.Func(famCheckpointRounds, func() float64 {
		rounds, _ := c.coord.Stats()
		return float64(rounds)
	}, site)
	r.Func(famCheckpointCommits, func() float64 {
		_, commits := c.coord.Stats()
		return float64(commits)
	}, site)
	r.Func(famRejoinMode, obs.Load(&c.rejoinSnapshots), site, snapshot)
	r.Func(famRejoinMode, obs.Load(&c.rejoinDeltas), site, delta)
	r.Func(famRejoinBytes, obs.Load(&c.rejoinSnapshotBytes), site, snapshot)
	r.Func(famRejoinBytes, obs.Load(&c.rejoinDeltaBytes), site, delta)
	r.Func(famJournalFlights,
		func() float64 { return float64(c.main.Engine().State().JournalFlights()) }, site)
	r.Func(famPromotions, func() float64 { return float64(c.promotions) }, site)
	r.Func(famPromotionReplayed, func() float64 { return float64(c.promotionReplayed) }, site)
	r.Func(famCentralEpoch, func() float64 { return float64(c.epoch) }, site)
	roundHist := r.Histogram(famCheckpointRound, site)
	if r != nil || tracer != nil {
		c.coord.RoundLatency = func(d time.Duration) {
			roundHist.Record(d)
			tracer.Observe(obs.StageChkptCommit, d)
		}
	}
}

// Main exposes the central main unit.
func (c *Central) Main() *MainUnit { return c.main }

// Semantics exposes the rule engine (for the Table-1 API and tests).
func (c *Central) Semantics() *Semantics { return c.sem }

// Ingest accepts one raw event from a source stream. The event's
// Stream field selects its vector-timestamp component.
func (c *Central) Ingest(e *event.Event) error {
	c.ingestMu.RLock()
	defer c.ingestMu.RUnlock()
	if c.ingestClosed {
		return ErrUnitClosed
	}
	c.in <- e
	return nil
}

// receivingTask timestamps incoming events and places them on the
// ready queue (paper Section 3.1). It takes what is already buffered as
// one run: one ingress clock read and one ready-queue hop per run.
func (c *Central) receivingTask() {
	defer c.pipeWG.Done()
	clock := vclock.New(c.cfg.Streams)
	if res := c.cfg.Resume; res != nil {
		// Resume stamping past every event the standby admitted: reusing
		// an old stamp would make surviving mirrors' dedup watermarks
		// silently drop the promoted central's fresh events.
		for i := 0; i < len(clock) && i < len(res.Clock); i++ {
			clock[i] = res.Clock[i]
		}
	}
	run := make([]*event.Event, 0, receiveRun)
	for e := range c.in {
		// Only this task receives, so everything len reports is there.
		run = append(run[:0], e)
		for n := min(len(c.in), receiveRun-1); n > 0; n-- {
			run = append(run, <-c.in)
		}
		now := time.Now().UnixNano()
		for _, e := range run {
			clock = clock.Tick(int(e.Stream))
			e.VT = clock.Clone()
			e.Ingress = now
			if e.Coalesced == 0 {
				e.Coalesced = 1
			}
		}
		c.received.Add(uint64(len(run)))
		err := c.ready.PutBatch(run)
		clear(run)
		if err != nil {
			return
		}
	}
	c.ready.Close()
}

// centralFns bundles the installed mirroring and forwarding
// functions so both can be swapped atomically. batch, when non-nil, is
// the vectorized form of mirror — it filters a whole view batch under
// one rule-engine lock with in-place compaction. It is set for the
// built-in mirror functions; a custom set_mirror function clears it
// and the sending task falls back to the per-event loop.
type centralFns struct {
	mirror MirrorFunc
	fwd    FwdFunc
	batch  func(*Semantics, []*event.Event) []*event.Event
}

// passthroughBatch is SimpleMirrorFunc's vectorized form: every event
// is mirrored unmodified.
func passthroughBatch(_ *Semantics, batch []*event.Event) []*event.Event { return batch }

// setMirrorFns atomically installs a mirror function together with its
// vectorized companion (nil for custom functions), preserving the
// installed forwarding function.
func (c *Central) setMirrorFns(fn MirrorFunc, batch func(*Semantics, []*event.Event) []*event.Event) {
	for {
		old := c.fns.Load()
		if c.fns.CompareAndSwap(old, &centralFns{mirror: fn, fwd: old.fwd, batch: batch}) {
			return
		}
	}
}

// sendingTask removes events from the ready queue in batches, forwards
// them to the main unit, applies the mirroring function, hands each
// surviving batch to every mirror link's outbox, stores it in the
// backup queue, and triggers checkpoints at the configured frequency.
func (c *Central) sendingTask() {
	defer c.pipeWG.Done()
	defer c.main.DrainEvents()
	defer c.closeSenders()
	if c.cfg.NoMirror {
		// Baseline fast path: no mirroring parameters, no filter, no
		// backup, no checkpoint accounting — the sending task is a
		// pure batch forwarder to the local main unit.
		c.forwardOnly()
		return
	}

	batch := make([]*event.Event, 0, c.cfg.SendBatch)
	var filtered, fwdRun []*event.Event
	var sinceCk uint64 // events forwarded since the last checkpoint trigger
	for {
		p := c.params.get()
		max := c.cfg.SendBatch
		if p.Coalesce {
			// The coalescing bound doubles as the batch bound so one
			// coalesced event never represents more than MaxCoalesce
			// raw events.
			max = p.MaxCoalesce
		}
		var err error
		batch, err = c.ready.GetAppend(batch[:0], max)
		if err != nil {
			return
		}

		fns := c.fns.Load()
		tracer := c.cfg.Tracer
		if tracer != nil {
			// Stamp ready-queue removal before any handoff: the stamps
			// must be written while this task still owns the events
			// exclusively (ShallowBatch later copies them along).
			now := time.Now().UnixNano()
			for _, e := range batch {
				e.ReadyAt = now
			}
		}

		// Forward the full stream to the local main unit: regular
		// clients see unreduced state updates. Checkpointing runs at a
		// frequency counted in processed events (the paper's "once per
		// 50 processed events"), independent of how many survive the
		// mirroring filter.
		fwdRun = c.forwardRun(batch, fwdRun, fns.fwd)
		var due uint64
		due, sinceCk = checkpointsDue(sinceCk, uint64(len(batch)), uint64(p.CheckpointFreq))
		for ; due > 0; due-- {
			c.trigger()
		}

		// Mirror path: shallow-copy the batch into a pooled slab of
		// views aliasing the originals' payloads and timestamps (both
		// immutable after admission), filter and optionally coalesce in
		// place over the slab, back the views up, then fan the batch
		// out to every link's outbox. No payload byte is copied and no
		// per-event allocation happens: the slab travels by reference —
		// one count for this loop iteration, one for the backup queue,
		// one per link outbox — and returns to the pool when the
		// checkpoint commit trims the batch and every link has
		// submitted it.
		vb := event.ShallowBatch(batch)
		if fns.batch != nil {
			filtered = fns.batch(c.sem, vb.Events)
		} else {
			// Custom mirror functions (set_mirror) see one event at a
			// time; compact survivors in place over the slab.
			filtered = vb.Events[:0]
			for _, e := range vb.Events {
				if me := fns.mirror(c.sem, e); me != nil {
					filtered = append(filtered, me)
				}
			}
		}
		if p.Coalesce && len(filtered) > 1 {
			filtered = c.sem.Coalesce(filtered)
		}
		if c.fieldDeltas.Load() && len(filtered) > 0 {
			// Field-delta regime: rewrite the surviving (possibly
			// coalesced) events into per-flight field deltas before
			// backup and fan-out, so mirrors and the backup replay see
			// the compact form.
			transformFieldDeltas(filtered)
		}
		if len(filtered) == 0 {
			vb.Release()
			continue
		}
		bytes := 0
		var weight uint64
		for _, me := range filtered {
			bytes += len(me.Payload)
			weight += uint64(me.Weight())
		}
		c.sendMu.Lock()
		vb.Retain()
		c.backup.AppendOwnedBatch(filtered, vb.Release)
		// Columnar framing costs a fixed charge per batch plus a small
		// per-event column append; the batch is booked in one ledger
		// operation.
		c.cfg.AuxCPU.Charge(c.cfg.Model.FrameBatchCost(len(filtered), bytes))
		for _, s := range c.senders {
			s.enqueue(filtered, vb)
		}
		c.sendMu.Unlock()
		if tracer != nil {
			// One fan-out sample per batch: ready-queue removal until
			// every link's outbox holds the filtered batch. The
			// producer reference is still held, so the view read here
			// cannot have been recycled by an early commit.
			tracer.Observe(obs.StageFanoutEnqueue,
				time.Duration(time.Now().UnixNano()-filtered[0].ReadyAt))
		}
		c.mirrored.Add(uint64(len(filtered)))
		c.mirroredW.Add(weight)
		vb.Release()
	}
}

// SetFieldDeltas switches the field-delta mirroring regime on or off.
// On, the sending task replaces each mirrored position, status, and
// gate-reader event with a one-record statedelta frame
// (TypeStateDelta) carrying only the fields the event would have
// changed; mirror EDEs apply the frames through ede.DeltaRule and
// converge byte-for-byte with raw mirroring. Off restores raw events.
// Takes effect on the next batch.
func (c *Central) SetFieldDeltas(on bool) { c.fieldDeltas.Store(on) }

// FieldDeltas reports whether the field-delta regime is installed.
func (c *Central) FieldDeltas() bool { return c.fieldDeltas.Load() }

// deltaRecordFor maps one mirrored data event to its field-delta
// record. ok=false passes the event through untransformed (control
// events and streams the flight table does not track: crew, baggage,
// weather).
func deltaRecordFor(e *event.Event) (statedelta.Record, bool) {
	r := statedelta.Record{Flight: e.Flight, Weight: e.Weight()}
	switch e.Type {
	case event.TypeFAAPosition:
		// The weighted update counter always advances; the coordinates
		// ride along when the payload carries a well-formed fix.
		r.Mask = statedelta.MaskCounters
		if lat, lon, alt, ok := e.Position(); ok {
			r.Mask |= statedelta.MaskPosition
			r.Lat, r.Lon, r.Alt = lat, lon, alt
		}
	case event.TypeDeltaStatus:
		r.Mask = statedelta.MaskStatus
		r.Status = uint8(e.Status)
	case event.TypeGateReader:
		// Weight is the boardings counted; the expected passenger total
		// travels in the first payload word, same as the raw event.
		r.Mask = statedelta.MaskPax
		if len(e.Payload) >= 4 {
			r.PaxExpected = uint32(e.Payload[0]) | uint32(e.Payload[1])<<8 |
				uint32(e.Payload[2])<<16 | uint32(e.Payload[3])<<24
		}
	default:
		return statedelta.Record{}, false
	}
	return r, true
}

// transformFieldDeltas rewrites, in place over the batch's view slab,
// every mappable data event into a one-record statedelta frame. It
// runs after filtering and coalescing, so record weights carry the
// coalesce counts. All frames in the batch share one exactly-sized
// buffer; each event's payload is a capped sub-slice of it.
func transformFieldDeltas(batch []*event.Event) {
	recs := make([]statedelta.Record, 0, len(batch))
	idxs := make([]int, 0, len(batch))
	total := 0
	for i, e := range batch {
		r, ok := deltaRecordFor(e)
		if !ok {
			continue
		}
		recs = append(recs, r)
		idxs = append(idxs, i)
		total += statedelta.FrameSize(recs[len(recs)-1:])
	}
	if len(recs) == 0 {
		return
	}
	buf := make([]byte, 0, total)
	for k, i := range idxs {
		start := len(buf)
		var err error
		buf, err = statedelta.AppendFrame(buf, recs[k:k+1])
		if err != nil {
			// A single record built by deltaRecordFor always encodes;
			// if it somehow does not, ship the raw event instead.
			buf = buf[:start]
			continue
		}
		e := batch[i]
		e.Type = event.TypeStateDelta
		e.Payload = buf[start:len(buf):len(buf)]
	}
}

// forwardOnly is the NoMirror sending loop: batch from the ready
// queue straight into the main unit.
func (c *Central) forwardOnly() {
	batch := make([]*event.Event, 0, c.cfg.SendBatch)
	var fwdRun []*event.Event
	for {
		var err error
		batch, err = c.ready.GetAppend(batch[:0], c.cfg.SendBatch)
		if err != nil {
			return
		}
		if c.cfg.Tracer != nil {
			now := time.Now().UnixNano()
			for _, e := range batch {
				e.ReadyAt = now
			}
		}
		fwdRun = c.forwardRun(batch, fwdRun, c.fns.Load().fwd)
	}
}

// forwardRun passes batch through the forwarding function and hands
// the survivors to the local main unit as one run: one queue hop and,
// when tracing, one ForwardAt clock read for the run. scratch is the
// caller's reusable survivor slice, returned emptied.
func (c *Central) forwardRun(batch, scratch []*event.Event, fwd FwdFunc) []*event.Event {
	run := scratch[:0]
	for _, e := range batch {
		if fe := fwd(e); fe != nil {
			run = append(run, fe)
		}
	}
	if c.cfg.Tracer != nil {
		now := time.Now().UnixNano()
		for _, fe := range run {
			fe.ForwardAt = now
		}
	}
	if len(run) > 0 && c.main.DeliverBatch(run) == nil {
		c.forwarded.Add(uint64(len(run)))
	}
	clear(run)
	return run[:0]
}

// checkpointsDue advances the count of events forwarded since the last
// checkpoint trigger by a run of n at frequency freq. It returns how
// many triggers fall due within the run and the count carried into the
// next one: the closed form of counting one event at a time, posting
// and resetting whenever the count reaches freq. A count already at or
// past freq (the frequency was just lowered) posts on the run's first
// event.
func checkpointsDue(since, n, freq uint64) (posts, carried uint64) {
	if freq < 1 {
		freq = 1
	}
	first := uint64(1) // events until the first post
	if since+1 < freq {
		first = freq - since
	}
	if n < first {
		return 0, since + n
	}
	return 1 + (n-first)/freq, (n - first) % freq
}

// closeSenders flushes and stops the per-link sender goroutines. It
// runs when the sending task exits, so Drain returns only after every
// queued event has been pushed onto its link.
func (c *Central) closeSenders() {
	for _, s := range c.senders {
		s.close()
	}
	c.senderWG.Wait()
}

// LinkStats snapshots the per-mirror-link fan-out counters, indexed
// like CentralConfig.Mirrors. With NoMirror set, all entries are zero.
func (c *Central) LinkStats() []LinkStats {
	out := make([]LinkStats, len(c.cfg.Mirrors))
	for i, s := range c.senders {
		out[i] = s.stats()
	}
	return out
}

// trigger posts one automatic checkpoint trigger to the control task.
// A full channel already holds more triggers than the open round can
// defer, so dropping this one changes nothing.
func (c *Central) trigger() {
	select {
	case c.chkptTrigger <- struct{}{}:
	default:
	}
}

// controlTask hands the coordinator a trigger each time the sending
// task has forwarded the configured number of events (and each time a
// closing round releases one it owed). The coordinator paces them by
// commits: a trigger starts a round only when none is open.
func (c *Central) controlTask() {
	defer c.ctrlWG.Done()
	for {
		select {
		case <-c.chkptTrigger:
			// The coordinator's own work is the fixed round cost, booked
			// per trigger as the ledger figures are calibrated;
			// participants charge their backup-queue scans locally.
			c.cfg.AuxCPU.ChargeAsync(c.cfg.Model.CheckpointBase)
			c.coord.Due()
		case <-c.ctrlStop:
			return
		}
	}
}

// Checkpoint synchronously initiates one checkpoint round, abandoning
// any open one (the control task starts commit-paced rounds
// automatically at the configured frequency; this entry point serves
// final flushes, drivers that pace rounds by hand, and tests). It
// reports whether a round ran.
func (c *Central) Checkpoint() bool {
	return c.coord.Init()
}

// tickTelemetry feeds one cumulative sample per link into the wire
// telemetry sampler (no-op without mirror links).
func (c *Central) tickTelemetry() {
	if c.telem == nil {
		return
	}
	samples := make([]linktelem.Sample, len(c.senders))
	for i, s := range c.senders {
		samples[i] = s.telemSample()
	}
	c.telem.Tick(time.Now(), samples)
}

// primeTelemetry baselines the wire-telemetry sampler at the links'
// current cumulative counters. A promoted central re-registers the
// same per-link counter series the old central grew (the registry
// hands back existing series), so without the baseline the first
// post-promotion round would read the whole history as one delta and
// poison the EWMAs behind VarWireBytes/VarOutboxDepth.
func (c *Central) primeTelemetry() {
	if c.telem == nil {
		return
	}
	samples := make([]linktelem.Sample, len(c.senders))
	for i, s := range c.senders {
		samples[i] = s.telemSample()
	}
	c.telem.Prime(time.Now(), samples)
}

// Telemetry returns the smoothed per-link wire telemetry (nil without
// mirror links).
func (c *Central) Telemetry() []linktelem.Link {
	if c.telem == nil {
		return nil
	}
	return c.telem.Links()
}

// HandleControl processes a control event arriving from a mirror site
// (checkpoint replies carrying piggybacked monitor samples).
func (c *Central) HandleControl(e *event.Event) {
	if e.Type == event.TypeChkptReply {
		// Only mirror sites reach HandleControl; the central main unit
		// replies straight to the coordinator. An excluded site's late
		// sample must not re-enter adaptation, which evicted its row.
		if c.cfg.OnMirrorSample != nil && len(e.Payload) > 0 && c.coord.Alive(int(e.Stream)) {
			if s, err := DecodeSample(e.Payload); err == nil {
				c.cfg.OnMirrorSample(int(e.Stream), s)
			}
		}
		c.coord.OnReply(e)
	}
}

// SetPiggyback installs a provider whose bytes ride on the next CHKPT
// broadcast (adaptation directives). The provider is consumed once
// per checkpoint round.
func (c *Central) SetPiggyback(f func() []byte) {
	c.piggyMu.Lock()
	c.piggyback = f
	c.piggyMu.Unlock()
}

// takePiggyback produces the bytes for the CHKPT of the given round
// and retains them (with the round stamp) so recovery snapshots and
// PublishDirective can re-deliver the same versioned directive.
func (c *Central) takePiggyback(round uint64) []byte {
	// Tick wire telemetry at round granularity, before the round's
	// piggyback provider runs: the adaptation controller observing
	// this round's sample sees telemetry that includes the interval
	// just ended, so an engage decision rides the same CHKPT.
	c.tickTelemetry()
	c.piggyMu.Lock()
	f := c.piggyback
	c.piggyMu.Unlock()
	if f == nil {
		return nil
	}
	b := f()
	if len(b) > 0 {
		c.piggyMu.Lock()
		c.lastDirective = append(c.lastDirective[:0], b...)
		c.lastDirectiveRound = round
		c.piggyMu.Unlock()
	}
	return b
}

// lastDirectiveSnapshot copies the most recent piggybacked directive
// and the round that stamped it (nil if no round has piggybacked yet).
func (c *Central) lastDirectiveSnapshot() (uint64, []byte) {
	c.piggyMu.Lock()
	defer c.piggyMu.Unlock()
	if len(c.lastDirective) == 0 {
		return 0, nil
	}
	return c.lastDirectiveRound, append([]byte(nil), c.lastDirective...)
}

// PublishDirective broadcasts the current adaptation directive as a
// standalone TypeAdapt control event. Checkpoint rounds stop once the
// backup queue drains, so this is how a site that missed the last
// piggybacked delivery still converges. When a piggyback provider is
// installed it is consulted for fresh bytes first: a directive that
// changed since a checkpoint last stamped one (a transition decided
// on a reply that arrived after the round's CHKPT went out) gets a
// freshly allocated round so receivers past the old watermark still
// accept it — allocating the round abandons any open checkpoint
// round, exactly as starting a new round would. An unchanged
// directive keeps its original stamp, making the re-broadcast
// idempotent at every receiver. It reports whether a directive
// existed to publish.
func (c *Central) PublishDirective() bool {
	c.piggyMu.Lock()
	f := c.piggyback
	c.piggyMu.Unlock()
	if f != nil {
		if b := f(); len(b) > 0 {
			c.piggyMu.Lock()
			if !bytes.Equal(b, c.lastDirective) {
				c.lastDirective = append(c.lastDirective[:0], b...)
				c.lastDirectiveRound = c.coord.NextRound()
			}
			c.piggyMu.Unlock()
		}
	}
	round, dir := c.lastDirectiveSnapshot()
	if dir == nil {
		return false
	}
	ev := event.NewControl(event.TypeAdapt, nil)
	ev.Seq = round
	ev.Payload = dir
	c.coord.Broadcast(ev)
	return true
}

// Sample returns the central site's own monitored variables, including
// the wire-telemetry variables derived from the fan-out links.
func (c *Central) Sample() Sample {
	s := Sample{
		Ready:   c.ready.Len(),
		Backup:  c.backup.Len(),
		Pending: c.main.PendingRequests(),
	}
	if c.telem != nil {
		s.WireBytes = c.telem.MaxBytesPerRound()
		s.Outbox = c.telem.MaxOutboxDepth()
	}
	return s
}

// Backup exposes the central backup queue (recovery, tests).
func (c *Central) Backup() *queue.Backup { return c.backup }

// Epoch returns the promotion epoch this central stamps rounds in: 0
// for an original central, the ResumeState's epoch for a promoted one.
func (c *Central) Epoch() uint64 { return c.epoch }

// PromotionStats returns how many promotions this central performed
// (0 or 1) and how many backup events the promotion replayed.
func (c *Central) PromotionStats() (promotions, replayed uint64) {
	return c.promotions, c.promotionReplayed
}

// CommittedCut returns the last committed checkpoint cut (nil before
// the first commit) — the status plane's checkpoint-progress field.
func (c *Central) CommittedCut() vclock.VC { return c.backup.Committed() }

// LastDirectiveRound returns the checkpoint round that stamped the most
// recent piggybacked adaptation directive (0 before the first one).
func (c *Central) LastDirectiveRound() uint64 {
	round, dir := c.lastDirectiveSnapshot()
	if dir == nil {
		return 0
	}
	return round
}

// Stats snapshot.
type CentralStats struct {
	Received       uint64 // raw events admitted
	Forwarded      uint64 // events delivered to the central main unit
	Mirrored       uint64 // events sent to each mirror site
	MirroredWeight uint64 // raw events those mirrored events represent
	ChkptRounds    uint64
	ChkptCommits   uint64
}

// Stats returns traffic and protocol counters.
func (c *Central) Stats() CentralStats {
	rounds, commits := c.coord.Stats()
	return CentralStats{
		Received:       c.received.Load(),
		Forwarded:      c.forwarded.Load(),
		Mirrored:       c.mirrored.Load(),
		MirroredWeight: c.mirroredW.Load(),
		ChkptRounds:    rounds,
		ChkptCommits:   commits,
	}
}

// Drain stops ingestion and blocks until every admitted event has
// flowed through the ready queue, the mirror path, and the central
// EDE (the sending task drains the main unit's event queue before it
// exits). Mirror sites drain on their own schedule.
func (c *Central) Drain() {
	c.drainOnce.Do(func() {
		c.ingestMu.Lock()
		c.ingestClosed = true
		close(c.in)
		c.ingestMu.Unlock()
		c.pipeWG.Wait()
	})
}

// Close drains the pipeline, stops the control task, and shuts the
// main unit down. It blocks until all goroutines exit.
func (c *Central) Close() {
	c.closeOnce.Do(func() {
		c.Drain()
		close(c.ctrlStop)
		c.ctrlWG.Wait()
		c.main.Close()
	})
}
