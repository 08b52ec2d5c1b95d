package core

import (
	"sync"
	"testing"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
)

// senderFunc adapts a function to the Sender interface.
type senderFunc func(*event.Event) error

func (f senderFunc) Submit(e *event.Event) error { return f(e) }

// SubmitOwned lets a per-event test double stand in for a data link
// (DataSender). The double may keep events past the call, so views are
// cloned off their slab first.
func (f senderFunc) SubmitOwned(es []*event.Event, ref event.Ref) error {
	for _, e := range es {
		if ref != nil {
			e = e.Clone()
		}
		if err := f(e); err != nil {
			return err
		}
	}
	return nil
}

// rig is a fully wired in-process central + N mirrors.
type rig struct {
	central *Central
	mirrors []*MirrorSite
}

// newRig wires central and mirrors with direct synchronous links.
func newRig(t *testing.T, nMirrors int, mutate func(*CentralConfig)) *rig {
	t.Helper()
	r := &rig{}
	var links []MirrorLink
	for i := 0; i < nMirrors; i++ {
		i := i
		links = append(links, MirrorLink{
			Data: senderFunc(func(e *event.Event) error {
				r.mirrors[i].HandleData(e)
				return nil
			}),
			Ctrl: senderFunc(func(e *event.Event) error {
				r.mirrors[i].HandleControl(e)
				return nil
			}),
		})
	}
	cfg := CentralConfig{
		Streams: 2,
		Mirrors: links,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r.central = NewCentral(cfg)
	for i := 0; i < nMirrors; i++ {
		r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{
			SiteID: uint8(i),
			CtrlUp: senderFunc(func(e *event.Event) error {
				r.central.HandleControl(e)
				return nil
			}),
		}))
	}
	t.Cleanup(func() {
		r.central.Close()
		for _, m := range r.mirrors {
			m.Close()
		}
	})
	return r
}

func (r *rig) feedPositions(t *testing.T, flights int, perFlight int, size int) {
	t.Helper()
	seq := uint64(0)
	for i := 0; i < perFlight; i++ {
		for f := 0; f < flights; f++ {
			seq++
			e := event.NewPosition(event.FlightID(f+1), seq, float64(i), float64(-i), 9000, size)
			if err := r.central.Ingest(e); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// drainAll waits until mirrors received everything central mirrored,
// then drains them.
func (r *rig) drainAll() {
	r.central.Drain()
	want := r.central.Stats().Mirrored
	for _, m := range r.mirrors {
		for m.Received() < want {
			time.Sleep(200 * time.Microsecond)
		}
		m.Drain()
	}
}

func TestSimpleMirroringReplicates(t *testing.T) {
	r := newRig(t, 2, nil)
	r.feedPositions(t, 5, 20, 128)
	r.drainAll()

	st := r.central.Stats()
	if st.Received != 100 {
		t.Fatalf("Received = %d, want 100", st.Received)
	}
	if st.Mirrored != 100 {
		t.Fatalf("Mirrored = %d, want 100 (simple mirroring mirrors everything)", st.Mirrored)
	}
	if st.Forwarded != 100 {
		t.Fatalf("Forwarded = %d, want 100", st.Forwarded)
	}
	if got := r.central.Main().Processed(); got != 100 {
		t.Fatalf("central EDE processed %d, want 100", got)
	}
	for i, m := range r.mirrors {
		if got := m.Processed(); got != 100 {
			t.Fatalf("mirror %d processed %d, want 100", i, got)
		}
		// Replica check: flight positions equal.
		for f := event.FlightID(1); f <= 5; f++ {
			cf, _ := r.central.Main().Engine().State().Get(f)
			mf, ok := m.Main().Engine().State().Get(f)
			if !ok {
				t.Fatalf("mirror %d missing flight %d", i, f)
			}
			if cf.Lat != mf.Lat || cf.Lon != mf.Lon {
				t.Fatalf("mirror %d flight %d position diverged", i, f)
			}
		}
	}
}

func TestSelectiveMirroringReducesTraffic(t *testing.T) {
	r := newRig(t, 1, nil)
	r.central.InstallSelective(10)
	r.feedPositions(t, 2, 50, 64) // 100 events, 2 flights
	r.drainAll()

	st := r.central.Stats()
	if st.Received != 100 || st.Forwarded != 100 {
		t.Fatalf("stats = %+v", st)
	}
	// Per flight: 50 events, L=10 → 5 mirrored. 2 flights → 10.
	if st.Mirrored != 10 {
		t.Fatalf("Mirrored = %d, want 10", st.Mirrored)
	}
	// Weighted replication: mirror's weighted count within L of 100.
	got := r.mirrors[0].Processed()
	if got < 100-2*9 || got > 100 {
		t.Fatalf("mirror weighted processed = %d, want within [82,100]", got)
	}
	// Central EDE still sees the full stream.
	if r.central.Main().Processed() != 100 {
		t.Fatalf("central processed %d, want 100", r.central.Main().Processed())
	}
}

func TestNoMirrorBaseline(t *testing.T) {
	r := newRig(t, 0, func(cfg *CentralConfig) { cfg.NoMirror = true })
	r.feedPositions(t, 3, 10, 64)
	r.central.Drain()
	st := r.central.Stats()
	if st.Mirrored != 0 {
		t.Fatalf("Mirrored = %d, want 0", st.Mirrored)
	}
	if st.Forwarded != 30 {
		t.Fatalf("Forwarded = %d, want 30", st.Forwarded)
	}
	if r.central.Backup().Len() != 0 {
		t.Fatal("backup queue used with mirroring disabled")
	}
}

func TestVectorTimestampsPerStream(t *testing.T) {
	r := newRig(t, 1, nil)
	for i := uint64(1); i <= 3; i++ {
		e := event.NewPosition(1, i, 0, 0, 0, 32)
		e.Stream = 0
		r.central.Ingest(e)
	}
	e := event.NewStatus(1, 1, event.StatusLanded, 16)
	e.Stream = 1
	r.central.Ingest(e)
	r.drainAll()

	last := r.central.Main().LastProcessed()
	if last.At(0) != 3 || last.At(1) != 1 {
		t.Fatalf("LastProcessed = %v, want <3,1>", last)
	}
}

func TestCheckpointTrimsBackupQueues(t *testing.T) {
	r := newRig(t, 2, func(cfg *CentralConfig) {
		cfg.Params = Params{CheckpointFreq: 10}
	})
	r.feedPositions(t, 4, 25, 64) // 100 events
	r.drainAll()

	// With everything drained, a round commits through the last event
	// and trims every backup queue completely: the last trigger's round
	// proposes the whole stream, and if a mirror voted before applying
	// its tail, the next tick's heartbeat commits the rest. The test
	// ticks as a deployed central's owner does.
	waitFor(t, "the rounds to trim every backup queue", func() bool {
		r.central.Tick()
		empty := r.central.Backup().Len() == 0
		for _, m := range r.mirrors {
			empty = empty && m.Backup().Len() == 0
		}
		return empty
	})
	if st := r.central.Stats(); st.ChkptRounds == 0 || st.ChkptCommits == 0 {
		t.Fatalf("no checkpointing happened: %+v", st)
	}
}

func TestIngestAfterDrainFails(t *testing.T) {
	r := newRig(t, 0, nil)
	r.central.Drain()
	if err := r.central.Ingest(event.NewPosition(1, 1, 0, 0, 0, 32)); err != ErrUnitClosed {
		t.Fatalf("Ingest after Drain = %v, want ErrUnitClosed", err)
	}
}

func TestUpdateDelayRecorded(t *testing.T) {
	hist := new(metrics.Histogram)
	r := newRig(t, 0, func(cfg *CentralConfig) {
		cfg.Main.DelayHist = hist
	})
	r.feedPositions(t, 1, 20, 64)
	r.central.Drain()
	if hist.Count() != 20 {
		t.Fatalf("delay samples = %d, want 20", hist.Count())
	}
	if hist.Mean() <= 0 {
		t.Fatal("mean delay must be positive")
	}
}

func TestCentralEmitsStateUpdates(t *testing.T) {
	var updates []event.Type
	out := senderFunc(func(e *event.Event) error {
		updates = append(updates, e.Type)
		return nil
	})
	r := newRig(t, 0, func(cfg *CentralConfig) {
		cfg.Main.Out = out
	})
	r.central.Ingest(event.NewStatus(1, 1, event.StatusAtGate, 16))
	r.central.Drain()
	// One state update + one derived flight-arrived event.
	var stateUpdates, arrived int
	for _, ty := range updates {
		switch ty {
		case event.TypeStateUpdate:
			stateUpdates++
		case event.TypeFlightArrived:
			arrived++
		}
	}
	if stateUpdates != 1 || arrived != 1 {
		t.Fatalf("updates = %v", updates)
	}
	if r.central.Main().EmittedUpdates() != 2 {
		t.Fatalf("EmittedUpdates = %d, want 2", r.central.Main().EmittedUpdates())
	}
}

func TestSetParamsDynamic(t *testing.T) {
	r := newRig(t, 1, nil)
	r.central.SetParams(true, 20, 100)
	p := r.central.GetParams()
	if !p.Coalesce || p.MaxCoalesce != 20 || p.CheckpointFreq != 100 {
		t.Fatalf("params = %+v", p)
	}
}

func TestAdjustParam(t *testing.T) {
	r := newRig(t, 1, nil)
	r.central.SetParams(true, 10, 50)
	r.central.AdjustParam(ParamMaxCoalesce, 200)
	if got := r.central.GetParams().MaxCoalesce; got != 20 {
		t.Fatalf("MaxCoalesce = %d, want 20", got)
	}
	r.central.AdjustParam(ParamChkptFreq, 200)
	if got := r.central.GetParams().CheckpointFreq; got != 100 {
		t.Fatalf("CheckpointFreq = %d, want 100", got)
	}
	r.central.SetOverwrite(event.TypeFAAPosition, 10)
	r.central.AdjustParam(ParamOverwriteLen, 200)
	if got := r.central.Semantics().OverwriteLen(event.TypeFAAPosition); got != 20 {
		t.Fatalf("overwrite len = %d, want 20", got)
	}
}

func TestCustomMirrorAndFwdFunctions(t *testing.T) {
	r := newRig(t, 1, nil)
	// Custom mirror: drop everything; custom fwd: drop status events.
	r.central.SetMirror(func(_ *Semantics, e *event.Event) *event.Event { return nil })
	r.central.SetFwd(func(e *event.Event) *event.Event {
		if e.Type == event.TypeDeltaStatus {
			return nil
		}
		return e
	})
	r.central.Ingest(event.NewPosition(1, 1, 0, 0, 0, 32))
	r.central.Ingest(event.NewStatus(1, 2, event.StatusLanded, 16))
	r.central.Drain()
	st := r.central.Stats()
	if st.Mirrored != 0 {
		t.Fatalf("Mirrored = %d, want 0 with drop-all mirror func", st.Mirrored)
	}
	if st.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1 (status dropped)", st.Forwarded)
	}
	// Reset to defaults via nil.
	r.central.SetMirror(nil)
	r.central.SetFwd(nil)
}

func TestCoalescingReducesMirrorEvents(t *testing.T) {
	r := newRig(t, 1, func(cfg *CentralConfig) {
		cfg.Params = Params{Coalesce: true, MaxCoalesce: 10}
	})
	// Feed a burst for one flight; the sending task batches and
	// coalesces runs of positions.
	for i := uint64(1); i <= 100; i++ {
		r.central.Ingest(event.NewPosition(1, i, float64(i), 0, 0, 64))
	}
	r.drainAll()
	st := r.central.Stats()
	if st.Mirrored >= 100 {
		t.Fatalf("Mirrored = %d, want < 100 with coalescing", st.Mirrored)
	}
	// Weight is conserved through coalescing.
	if st.MirroredWeight != 100 {
		t.Fatalf("MirroredWeight = %d, want 100", st.MirroredWeight)
	}
	if got := r.mirrors[0].Processed(); got != 100 {
		t.Fatalf("mirror weighted processed = %d, want 100", got)
	}
}

func TestMirrorSampleReachesCentral(t *testing.T) {
	var mu sync.Mutex
	var got []Sample
	var sites []int
	r := newRig(t, 1, func(cfg *CentralConfig) {
		cfg.Params = Params{CheckpointFreq: 5}
		cfg.OnMirrorSample = func(site int, s Sample) {
			mu.Lock()
			got = append(got, s)
			sites = append(sites, site)
			mu.Unlock()
		}
	})
	r.feedPositions(t, 1, 50, 64)
	r.drainAll()
	// Every round the stream earned carries the mirror's sample back on
	// its reply; the control task runs them asynchronously.
	waitFor(t, "a mirror sample at central", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	for _, site := range sites {
		if site != 0 {
			t.Fatalf("sample attributed to site %d, want 0", site)
		}
	}
}

func TestRecoveryReplay(t *testing.T) {
	r := newRig(t, 1, func(cfg *CentralConfig) {
		cfg.Params = Params{CheckpointFreq: 1 << 30} // never checkpoint
	})
	r.feedPositions(t, 3, 10, 64)
	r.drainAll()

	// A fresh mirror joins and is recovered from the central site: the
	// TypeRecoveryState event installs the snapshot at its cut and the
	// replay covers anything past it — here nothing, since the cut
	// already covers every drained event and the backup suffix past the
	// cut is therefore empty (events the receiver's arrival watermark
	// would drop are not shipped at all).
	fresh := NewMirrorSite(MirrorSiteConfig{})
	defer fresh.Close()
	var sawState bool
	n, err := r.central.RecoverMirror(senderFunc(func(e *event.Event) error {
		if e.Type == event.TypeRecoveryState {
			sawState = true
		}
		fresh.HandleData(e)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !sawState {
		t.Fatal("no TypeRecoveryState event in the recovery transfer")
	}
	if n != 0 {
		t.Fatalf("replayed %d events, want 0 (all 30 inside the snapshot cut)", n)
	}
	fresh.Drain()
	for f := event.FlightID(1); f <= 3; f++ {
		cf, _ := r.central.Main().Engine().State().Get(f)
		mf, ok := fresh.Main().Engine().State().Get(f)
		if !ok || cf.Lat != mf.Lat || cf.PositionUpdates != mf.PositionUpdates {
			t.Fatalf("recovered mirror diverged on flight %d", f)
		}
	}
	// Byte-for-byte convergence, the chaos suite's invariant 3.
	cs := r.central.Main().Engine().State().Snapshot()
	ms := fresh.Main().Engine().State().Snapshot()
	if string(cs) != string(ms) {
		t.Fatalf("recovered snapshot differs: %d vs %d bytes", len(cs), len(ms))
	}
}

func TestMainUnitRequests(t *testing.T) {
	m := NewMainUnit(MainConfig{})
	defer m.Close()
	m.Deliver(event.NewPosition(1, 1, 0, 0, 0, 32))
	state, err := m.RequestInitState()
	if err != nil {
		t.Fatal(err)
	}
	if state.Len() == 0 {
		t.Fatal("empty init state")
	}
	if m.ServedRequests() != 1 {
		t.Fatalf("ServedRequests = %d", m.ServedRequests())
	}
}

func TestMainUnitRequestAfterClose(t *testing.T) {
	m := NewMainUnit(MainConfig{})
	m.Close()
	if _, err := m.RequestInitState(); err != ErrUnitClosed {
		t.Fatalf("err = %v, want ErrUnitClosed", err)
	}
	if err := m.Deliver(&event.Event{}); err != ErrUnitClosed {
		t.Fatalf("Deliver after close = %v, want ErrUnitClosed", err)
	}
}

func TestMainUnitRequestBufferFull(t *testing.T) {
	m := NewMainUnit(MainConfig{RequestBuffer: 1})
	defer m.Close()
	// Saturate: worker may pick up the first request, so push until
	// ErrBusy appears or give up.
	busy := false
	for i := 0; i < 10000 && !busy; i++ {
		err := m.Request(&InitRequest{})
		busy = err == ErrBusy
	}
	if !busy {
		t.Fatal("never saw ErrBusy with a 1-deep buffer")
	}
}

func TestParamString(t *testing.T) {
	names := map[Param]string{
		ParamMaxCoalesce:  "max-coalesce",
		ParamOverwriteLen: "overwrite-len",
		ParamChkptFreq:    "chkpt-freq",
		Param(99):         "param(?)",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestSampleEncodeDecode(t *testing.T) {
	s := Sample{Ready: 10, Backup: 20, Pending: 30}
	got, err := DecodeSample(EncodeSample(s))
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}
	if _, err := DecodeSample([]byte{1, 2}); err == nil {
		t.Fatal("short sample must fail")
	}
}

func TestSampleMax(t *testing.T) {
	a := Sample{Ready: 1, Backup: 9, Pending: 4}
	b := Sample{Ready: 5, Backup: 2, Pending: 4}
	got := a.Max(b)
	if got != (Sample{Ready: 5, Backup: 9, Pending: 4}) {
		t.Fatalf("Max = %+v", got)
	}
}
