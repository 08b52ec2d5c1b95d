package core

import (
	"testing"

	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/vclock"
)

// loopback is an in-memory wire: Write appends framed bytes, Read
// consumes them, and storage is reclaimed once fully drained so the
// steady state neither grows nor reallocates.
type loopback struct {
	buf []byte
	r   int
}

func (l *loopback) Write(p []byte) (int, error) {
	l.buf = append(l.buf, p...)
	return len(p), nil
}

func (l *loopback) Read(p []byte) (int, error) {
	n := copy(p, l.buf[l.r:])
	l.r += n
	if l.r == len(l.buf) {
		l.buf = l.buf[:0]
		l.r = 0
	}
	return n, nil
}

// TestSteadyStatePathZeroAllocs pins the per-event allocation count of
// the synchronous central→mirror data path — shallow view batch,
// semantic filter, columnar encode, wire decode into pooled slab views,
// backup retention, checkpoint trim — at (amortized) zero. The few
// allocations that remain are per-BATCH bookkeeping (one release group,
// one committed-watermark merge per checkpoint), which this test bounds
// at 0.05 allocs per EVENT so a per-event allocation sneaking back into
// the hot path (~1.0/event) fails loudly.
func TestSteadyStatePathZeroAllocs(t *testing.T) {
	const n = 256
	src := make([]*event.Event, n)
	for i := range src {
		e := event.NewPosition(event.FlightID(i%8+1), uint64(i), 1, 2, 3, 128)
		e.VT = vclock.VC{0}
		src[i] = e
	}

	var wire loopback
	w := event.NewWriter(&wire)
	r := event.NewReader(&wire)
	sem := NewSemantics()
	backup := queue.NewBackup()

	seq := uint64(1)
	cycle := func() {
		// Monotonic admission stamps so each cycle's commit trims the
		// previous cycle's retained slab (in-place VT mutation: the
		// stamps are this test's own, never shared).
		for _, e := range src {
			e.VT[0] = seq
			e.Seq = seq
			seq++
		}
		vb := event.ShallowBatch(src)
		kept := sem.FilterBatch(vb.Events)
		if err := w.WriteBatchFrame(kept); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		_, b, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil || len(b.Events) != len(kept) {
			t.Fatalf("decoded batch = %v, want %d events", b, len(kept))
		}
		backup.AppendOwnedBatch(b.Events, b.Release)
		vb.Release()
		backup.Commit(b.Events[len(b.Events)-1].VT)
	}

	// Warm the slab pool, the wire buffers, and the backup's internal
	// slices before measuring.
	for i := 0; i < 10; i++ {
		cycle()
	}
	perRun := testing.AllocsPerRun(50, cycle)
	if perEvent := perRun / n; perEvent > 0.05 {
		t.Fatalf("steady-state path allocates %.3f allocs/event (%.1f per %d-event batch), want ~0",
			perEvent, perRun, n)
	}
	if backup.Len() > n {
		t.Fatalf("backup retained %d events; commits are not trimming", backup.Len())
	}
}

// countRef is a batch reference that only counts its holds.
type countRef struct{ n int }

func (r *countRef) Retain()  { r.n++ }
func (r *countRef) Release() { r.n-- }

// TestLinkSenderEnqueueAllocs pins the allocation budget of one fan-out
// outbox enqueue of an owned batch at 0: the ring is preallocated, and
// the release group keeps the batch's ref itself.
func TestLinkSenderEnqueueAllocs(t *testing.T) {
	s := newLinkSender(0, MirrorLink{Data: &collectSender{}}, DefaultOutboxDepth, nil, costmodel.Model{}, nil, nil, nil)
	batch := make([]*event.Event, 64)
	for i := range batch {
		batch[i] = tev(uint64(i + 1))
	}
	ref := &countRef{}
	// 101 enqueues of 64 events fit the ring's 8192 slots: nothing is
	// shed, so this is the common path.
	if n := testing.AllocsPerRun(100, func() { s.enqueue(batch, ref) }); n > 0 {
		t.Fatalf("enqueue allocates %v times, budget 0", n)
	}
	if ref.n != 101 {
		t.Fatalf("ref held %d times, want one hold per enqueue", ref.n)
	}
}
