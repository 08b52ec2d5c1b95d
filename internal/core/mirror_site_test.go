package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"adaptmirror/internal/event"
)

func positions(n int) []*event.Event {
	out := make([]*event.Event, n)
	for i := range out {
		out[i] = event.NewPosition(event.FlightID(i%8+1), uint64(i+1), 1, 2, 3, 16)
	}
	return out
}

// TestMirrorSampleCountsWholeBacklog: a mirror's backlog waits in one
// queue, and the monitored variable the site piggybacks to central
// adaptation reads all of it.
func TestMirrorSampleCountsWholeBacklog(t *testing.T) {
	m := NewMirrorSite(MirrorSiteConfig{})
	defer m.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer unstall() // before Close, which waits for the EDE
	barrierDone := make(chan error, 1)
	go func() {
		barrierDone <- m.Main().Barrier(func() {
			close(entered)
			<-release
		})
	}()
	<-entered // the EDE is stalled: nothing delivered from here on is applied

	const n = 1000
	evs := positions(n)
	for i := 0; i < n; i += 100 {
		if err := m.HandleOwnedBatch(evs[i:i+100], nil); err != nil {
			t.Fatal(err)
		}
	}
	// The reading holds for as long as the EDE is stalled: no other task
	// moves the backlog somewhere the sample does not look.
	for i := 0; i < 200; i++ {
		if got := m.Sample().Ready; got != n {
			t.Fatalf("Sample().Ready = %d with %d events waiting for the EDE", got, n)
		}
		runtime.Gosched()
	}
	if got := m.Sample().Backup; got != n {
		t.Fatalf("Sample().Backup = %d, want %d", got, n)
	}

	unstall()
	if err := <-barrierDone; err != nil {
		t.Fatal(err)
	}
	m.Drain()
	if got := m.Sample().Ready; got != 0 {
		t.Fatalf("Sample().Ready = %d after Drain", got)
	}
	if got := m.Processed(); got != n {
		t.Fatalf("Processed() = %d, want %d", got, n)
	}
}

type countingRef struct{ n atomic.Int64 }

func (r *countingRef) Retain()  { r.n.Add(1) }
func (r *countingRef) Release() { r.n.Add(-1) }

// TestHandleOwnedBatchAfterDrain: a drained site refuses a batch whole —
// it is not backed up, its slab is not retained, it is not counted.
func TestHandleOwnedBatchAfterDrain(t *testing.T) {
	m := NewMirrorSite(MirrorSiteConfig{})
	defer m.Close()
	if err := m.HandleOwnedBatch(positions(10), nil); err != nil {
		t.Fatal(err)
	}
	m.Drain()
	ref := &countingRef{}
	for _, r := range []event.Ref{nil, ref} {
		if err := m.HandleOwnedBatch(positions(5), r); !errors.Is(err, ErrUnitClosed) {
			t.Fatalf("HandleOwnedBatch after Drain = %v, want ErrUnitClosed", err)
		}
	}
	if got := m.Backup().Len(); got != 10 {
		t.Fatalf("backup holds %d events, want the 10 accepted before Drain", got)
	}
	if got := ref.n.Load(); got != 0 {
		t.Fatalf("refused batch left %d slab references held", got)
	}
	if got := m.Received(); got != 10 {
		t.Fatalf("Received() = %d, want 10", got)
	}
}
