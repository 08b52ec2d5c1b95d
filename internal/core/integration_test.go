package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// TestWeightConservationThroughPipeline checks the end-to-end
// invariant behind replica convergence: the weighted event count a
// mirror applies equals the raw events fed, minus at most the
// unflushed overwrite tails (one partial run per flight).
func TestWeightConservationThroughPipeline(t *testing.T) {
	f := func(flights8, perFlight8, l8 uint8) bool {
		flights := int(flights8%5) + 1
		perFlight := int(perFlight8%60) + 1
		l := int(l8%15) + 2
		r := newRigStandalone(1)
		defer r.close()
		r.central.InstallSelective(l)

		seq := uint64(0)
		for i := 0; i < perFlight; i++ {
			for fl := 1; fl <= flights; fl++ {
				seq++
				if r.central.Ingest(event.NewPosition(event.FlightID(fl), seq, 1, 2, 3, 32)) != nil {
					return false
				}
			}
		}
		r.drainAll()
		total := uint64(flights * perFlight)
		got := r.mirrors[0].Processed()
		tail := uint64(flights * (l - 1))
		return got <= total && got+tail >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newRigStandalone builds a central + n mirrors outside the testing.T
// cleanup flow so property functions can manage lifecycle themselves.
type standaloneRig struct {
	central *Central
	mirrors []*MirrorSite
}

func newRigStandalone(nMirrors int) *standaloneRig {
	r := &standaloneRig{}
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
	r.central = NewCentral(CentralConfig{Streams: 1, Mirrors: links})
	for i := 0; i < nMirrors; i++ {
		r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{
			SiteID: uint8(i),
			CtrlUp: senderFunc(func(e *event.Event) error {
				r.central.HandleControl(e)
				return nil
			}),
		}))
	}
	return r
}

func (r *standaloneRig) drainAll() {
	r.central.Drain()
	want := r.central.Stats().Mirrored
	for _, m := range r.mirrors {
		for m.Received() < want {
			time.Sleep(100 * time.Microsecond)
		}
		m.Drain()
	}
}

func (r *standaloneRig) close() {
	r.central.Close()
	for _, m := range r.mirrors {
		m.Close()
	}
}

// TestCommitNeverExceedsProcessed is the checkpoint safety property:
// a committed timestamp never runs ahead of the slowest participant's
// EDE progress.
func TestCommitNeverExceedsProcessed(t *testing.T) {
	r := newRigStandalone(2)
	defer r.close()
	r.central.SetParams(false, 1, 10)
	for i := uint64(1); i <= 200; i++ {
		r.central.Ingest(event.NewPosition(event.FlightID(i%7), i, 0, 0, 0, 16))
	}
	r.drainAll()
	r.central.Checkpoint()

	committed := r.central.Backup().Committed()
	if committed == nil {
		t.Fatal("nothing committed")
	}
	for i, m := range r.mirrors {
		last := m.Main().LastProcessed()
		if !committed.LessEq(last) {
			t.Fatalf("mirror %d: commit %v beyond processed %v", i, committed, last)
		}
	}
	if central := r.central.Main().LastProcessed(); !committed.LessEq(central) {
		t.Fatalf("commit %v beyond central progress %v", committed, central)
	}
}

// TestFailingMirrorLinkDoesNotStallCentral injects a dead mirror data
// link: the central site must keep processing and forwarding (the
// paper's no-timeout, no-abort stance means a commit simply never
// covers what the dead site never acknowledged).
func TestFailingMirrorLinkDoesNotStallCentral(t *testing.T) {
	dead := senderFunc(func(*event.Event) error { return ErrUnitClosed })
	c := NewCentral(CentralConfig{
		Streams: 1,
		Mirrors: []MirrorLink{{Data: dead, Ctrl: dead}},
	})
	defer c.Close()
	for i := uint64(1); i <= 100; i++ {
		if err := c.Ingest(event.NewPosition(1, i, 0, 0, 0, 16)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	if got := c.Main().Processed(); got != 100 {
		t.Fatalf("central processed %d with dead mirror, want 100", got)
	}
	// Backup retains everything: no replies, no commits.
	if got := c.Backup().Len(); got != 100 {
		t.Fatalf("backup len = %d, want 100 (nothing committable)", got)
	}
}

// TestRecoveryAfterPartialCommit replays only the uncommitted suffix
// plus a state snapshot; the snapshot covers the trimmed prefix.
func TestRecoveryAfterPartialCommit(t *testing.T) {
	r := newRigStandalone(1)
	defer r.close()
	r.central.SetParams(false, 1, 1<<30)
	for i := uint64(1); i <= 60; i++ {
		r.central.Ingest(event.NewPosition(event.FlightID(1+i%3), i, float64(i), 0, 0, 16))
	}
	r.drainAll()
	r.central.Checkpoint() // trims everything processed

	snap := r.central.BuildRecovery()
	if len(snap.State) == 0 {
		t.Fatal("empty recovery state")
	}
	if len(snap.Events) != 0 {
		t.Fatalf("backup retained %d events after full commit", len(snap.Events))
	}

	// Now some uncommitted extra traffic.
	r.central.ingestReopenForTest(t)
}

// ingestReopenForTest documents that Drain is terminal: feeding again
// must fail rather than silently drop.
func (c *Central) ingestReopenForTest(t *testing.T) {
	t.Helper()
	if err := c.Ingest(event.NewPosition(9, 999, 0, 0, 0, 8)); err != ErrUnitClosed {
		t.Fatalf("Ingest after drain = %v, want ErrUnitClosed", err)
	}
}

// TestConcurrentIngestors exercises the ingest path from many
// goroutines (sources are independent streams in deployment).
func TestConcurrentIngestors(t *testing.T) {
	r := newRigStandalone(1)
	defer r.close()
	var wg sync.WaitGroup
	const sources, each = 4, 100
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e := event.NewPosition(event.FlightID(s+1), uint64(i+1), 0, 0, 0, 16)
				if err := r.central.Ingest(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	r.drainAll()
	if got := r.central.Stats().Received; got != sources*each {
		t.Fatalf("received %d, want %d", got, sources*each)
	}
	// Vector stamps are strictly increasing in total order (single
	// receiving task), so the mirror saw a valid history.
	if got := r.mirrors[0].Processed(); got != sources*each {
		t.Fatalf("mirror processed %d, want %d", got, sources*each)
	}
}

// TestAdaptationPiggybackRoundTrip drives a regime directive through
// the real control path: central piggybacks on CHKPT, the mirror's
// OnPiggyback receives it.
func TestAdaptationPiggybackRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	var rounds []uint64
	r := &standaloneRig{}
	links := []MirrorLink{{
		Data: senderFunc(func(e *event.Event) error { r.mirrors[0].HandleData(e); return nil }),
		Ctrl: senderFunc(func(e *event.Event) error { r.mirrors[0].HandleControl(e); return nil }),
	}}
	// The frequency is set at construction: the sending task reads its
	// parameters before it waits for a batch, so a SetParams issued now
	// could miss the whole stream.
	r.central = NewCentral(CentralConfig{Streams: 1, Mirrors: links, Params: Params{MaxCoalesce: 1, CheckpointFreq: 5}})
	r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{
		CtrlUp: senderFunc(func(e *event.Event) error { r.central.HandleControl(e); return nil }),
		OnPiggyback: func(round uint64, b []byte) {
			mu.Lock()
			rounds = append(rounds, round)
			got = append(got, append([]byte(nil), b...))
			mu.Unlock()
		},
	}))
	defer r.close()

	r.central.SetPiggyback(func() []byte { return []byte("regime:2") })
	for i := uint64(1); i <= 20; i++ {
		r.central.Ingest(event.NewPosition(1, i, 0, 0, 0, 8))
	}
	r.drainAll()
	waitFor(t, "a piggybacked directive at the mirror", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0
	})

	mu.Lock()
	defer mu.Unlock()
	for _, b := range got {
		if string(b) != "regime:2" {
			t.Fatalf("directive corrupted: %q", b)
		}
	}
	// Each round stamps its directive once. (Arrival order is not
	// asserted: ordering deliveries is the applier's round watermark's
	// job.)
	seen := make(map[uint64]bool)
	for _, round := range rounds {
		if round == 0 || seen[round] {
			t.Fatalf("piggyback rounds not distinct and positive: %v", rounds)
		}
		seen[round] = true
	}
}

// TestVTMonotonePerStream validates the receiving task's stamping:
// within one run, observed VTs at the mirror are totally ordered.
func TestVTMonotonePerStream(t *testing.T) {
	var mu sync.Mutex
	var stamps []vclock.VC
	r := &standaloneRig{}
	links := []MirrorLink{{
		Data: senderFunc(func(e *event.Event) error {
			mu.Lock()
			stamps = append(stamps, e.VT)
			mu.Unlock()
			r.mirrors[0].HandleData(e)
			return nil
		}),
		Ctrl: senderFunc(func(e *event.Event) error { r.mirrors[0].HandleControl(e); return nil }),
	}}
	r.central = NewCentral(CentralConfig{Streams: 2, Mirrors: links})
	r.mirrors = append(r.mirrors, NewMirrorSite(MirrorSiteConfig{}))
	defer r.close()

	for i := uint64(1); i <= 50; i++ {
		e := event.NewPosition(1, i, 0, 0, 0, 8)
		e.Stream = uint8(i % 2)
		r.central.Ingest(e)
	}
	r.drainAll()

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(stamps); i++ {
		if stamps[i-1].Compare(stamps[i]) != vclock.Before {
			t.Fatalf("stamp %d (%v) not before stamp %d (%v)",
				i-1, stamps[i-1], i, stamps[i])
		}
	}
}
