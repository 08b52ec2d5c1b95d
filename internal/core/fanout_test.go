package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
)

func tev(seq uint64) *event.Event {
	return &event.Event{Type: event.TypeFAAPosition, Seq: seq, Coalesced: 1, Payload: []byte{1, 2, 3, 4}}
}

// collectSender is a data link that records every submitted event's
// Seq (it keeps no view past the call).
type collectSender struct {
	mu   sync.Mutex
	seqs []uint64
}

func (s *collectSender) SubmitOwned(events []*event.Event, _ event.Ref) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range events {
		s.seqs = append(s.seqs, e.Seq)
	}
	return nil
}

func (s *collectSender) got() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.seqs...)
}

func TestLinkSenderOverflowAccounting(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	blocking := senderFunc(func(e *event.Event) error {
		entered <- struct{}{}
		<-release
		return nil
	})
	s := newLinkSender(0, MirrorLink{Data: blocking}, 4, nil, costmodel.Model{}, nil, nil, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go s.run(&wg)

	// First event: picked up by the sender goroutine, which then blocks
	// inside the transport.
	s.enqueue([]*event.Event{tev(1)}, nil)
	<-entered

	// Eight more against a depth-4 ring: the four oldest are shed.
	more := make([]*event.Event, 8)
	for i := range more {
		more[i] = tev(uint64(i + 2))
	}
	s.enqueue(more, nil)
	st := s.stats()
	if st.Enqueued != 9 {
		t.Fatalf("Enqueued = %d, want 9", st.Enqueued)
	}
	if st.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4 (ring depth exceeded)", st.Dropped)
	}
	if st.Depth != 4 || st.MaxDepth != 4 {
		t.Fatalf("Depth/MaxDepth = %d/%d, want 4/4", st.Depth, st.MaxDepth)
	}

	close(release)
	s.close()
	wg.Wait()
	st = s.stats()
	if st.Sent != 5 {
		t.Fatalf("Sent = %d, want 5 (first event + surviving ring)", st.Sent)
	}
	if st.Sent+st.Dropped != st.Enqueued {
		t.Fatalf("Sent(%d) + Dropped(%d) != Enqueued(%d)", st.Sent, st.Dropped, st.Enqueued)
	}
	if st.Stall <= 0 {
		t.Fatal("blocked submission must accumulate stall time")
	}
}

func TestLinkSenderFilterAccounting(t *testing.T) {
	sink := &collectSender{}
	link := MirrorLink{
		Data:   sink,
		Filter: func(e *event.Event) bool { return e.Seq%2 == 0 },
	}
	s := newLinkSender(0, link, 16, nil, costmodel.Model{}, nil, nil, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go s.run(&wg)
	batch := make([]*event.Event, 10)
	for i := range batch {
		batch[i] = tev(uint64(i + 1))
	}
	s.enqueue(batch, nil)
	s.close()
	wg.Wait()
	st := s.stats()
	if st.Sent != 5 || st.Filtered != 5 || st.Dropped != 0 {
		t.Fatalf("Sent/Filtered/Dropped = %d/%d/%d, want 5/5/0", st.Sent, st.Filtered, st.Dropped)
	}
	for _, seq := range sink.got() {
		if seq%2 != 0 {
			t.Fatalf("filter leaked seq %d", seq)
		}
	}
}

// slowBatchSender stalls a fixed time per batch, simulating a shaped
// link, and counts what it receives.
type slowBatchSender struct {
	delay time.Duration
	n     atomic.Uint64
}

func (s *slowBatchSender) SubmitOwned(events []*event.Event, _ event.Ref) error {
	time.Sleep(s.delay)
	s.n.Add(uint64(len(events)))
	return nil
}

func TestSlowLinkDoesNotPerturbMainUnit(t *testing.T) {
	// One fast link and one deliberately slow link (200ms per batch,
	// simnet-shaped latency). With the per-link fan-out pipeline the
	// slow link backs up and sheds its own outbox; the sending task,
	// the fast link, and the local main unit proceed at full speed. The
	// pre-pipeline serial path would stall the whole sending loop on
	// every slow submission: ≥ ceil(5000/64) × 200ms ≈ 16s just in slow
	// link sleeps, on top of the ~100ms of modeled EDE work. The 2s
	// elapsed bound is far below that serial floor but generous against
	// scheduler noise. A virtual CPU paces the stream like every real
	// experiment (bursts bounded to ~8ms ≈ 400 events by the charge
	// ledger, well under the outbox depth), so the fast link
	// demonstrably keeps up while the slow one sheds.
	const events = 5000
	fast := &collectSender{}
	slow := &slowBatchSender{delay: 200 * time.Millisecond}
	model := costmodel.Model{
		EventBase:     20 * time.Microsecond,
		SerializeBase: 2 * time.Microsecond,
		SubmitBase:    3 * time.Microsecond,
	}
	c := NewCentral(CentralConfig{
		Streams: 1,
		Params:  Params{CheckpointFreq: 1 << 30},
		Model:   model,
		CPU:     &costmodel.CPU{},
		Main:    MainConfig{EDE: ede.Config{Model: model}},
		Mirrors: []MirrorLink{
			{Data: fast, Ctrl: senderFunc(func(*event.Event) error { return nil })},
			{Data: slow, Ctrl: senderFunc(func(*event.Event) error { return nil })},
		},
		OutboxDepth: 2048,
	})
	defer c.Close()
	c.InstallSimple()

	start := time.Now()
	for i := uint64(1); i <= events; i++ {
		if err := c.Ingest(tev(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	elapsed := time.Since(start)

	st := c.Stats()
	if st.Forwarded != events {
		t.Fatalf("Forwarded = %d, want %d (main unit must see the full stream)", st.Forwarded, events)
	}
	if got := c.Main().Processed(); got != events {
		t.Fatalf("central EDE processed %d, want %d", got, events)
	}
	links := c.LinkStats()
	if links[0].Sent != events || links[0].Dropped != 0 {
		t.Fatalf("fast link Sent/Dropped = %d/%d, want %d/0", links[0].Sent, links[0].Dropped, events)
	}
	if links[1].Dropped == 0 {
		t.Fatal("slow link must shed its own backlog instead of stalling the pipeline")
	}
	if links[1].Sent+links[1].Dropped != links[1].Enqueued {
		t.Fatalf("slow link Sent(%d) + Dropped(%d) != Enqueued(%d)",
			links[1].Sent, links[1].Dropped, links[1].Enqueued)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("drain took %v; the slow link is perturbing the sending path (serial floor ≈ 16s)", elapsed)
	}
}

func TestSetMirrorSetFwdSwapAtomically(t *testing.T) {
	r := newRig(t, 1, nil)
	r.central.SetFwd(func(e *event.Event) *event.Event { return nil })
	r.central.SetMirror(func(sem *Semantics, e *event.Event) *event.Event { return nil })
	r.feedPositions(t, 2, 10, 16)
	r.central.Drain()
	st := r.central.Stats()
	if st.Forwarded != 0 || st.Mirrored != 0 {
		t.Fatalf("Forwarded/Mirrored = %d/%d, want 0/0 after suppressing functions", st.Forwarded, st.Mirrored)
	}
	// Reset to defaults via nil.
	r.central.SetFwd(nil)
	r.central.SetMirror(nil)
}
