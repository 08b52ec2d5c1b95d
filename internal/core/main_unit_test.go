package core

import (
	"sync"
	"testing"
	"time"

	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
)

func TestRequestLatencyHistogram(t *testing.T) {
	hist := new(metrics.Histogram)
	m := NewMainUnit(MainConfig{RequestHist: hist})
	defer m.Close()
	m.Deliver(event.NewPosition(1, 1, 0, 0, 0, 32))

	for i := 0; i < 5; i++ {
		if _, err := m.RequestInitState(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hist.Count(); got != 5 {
		t.Fatalf("request histogram count = %d, want 5", got)
	}
	if hist.Max() < 0 {
		t.Fatalf("negative request latency: %v", hist.Max())
	}
}

func TestRequestStampPrecedesEnqueue(t *testing.T) {
	m := NewMainUnit(MainConfig{})
	defer m.Close()
	before := time.Now()
	r := &InitRequest{Resp: make(chan ede.Snapshot, 1)}
	if err := m.Request(r); err != nil {
		t.Fatal(err)
	}
	if r.EnqueuedAt.Before(before) || r.EnqueuedAt.After(time.Now()) {
		t.Fatalf("EnqueuedAt = %v not within the Request call", r.EnqueuedAt)
	}
	<-r.Resp
}

func TestSnapshotCacheStatsThroughMainUnit(t *testing.T) {
	m := NewMainUnit(MainConfig{})
	defer m.Close()
	m.Deliver(event.NewPosition(1, 1, 0, 0, 0, 32))
	for m.Processed() == 0 {
		time.Sleep(time.Millisecond)
	}

	const requests = 4
	for i := 0; i < requests; i++ {
		if _, err := m.RequestInitState(); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := m.SnapshotCacheStats()
	if hits+misses != requests {
		t.Fatalf("hits+misses = %d+%d, want %d", hits, misses, requests)
	}
	if misses == 0 {
		t.Fatal("first request against a fresh state must miss")
	}
	if hits == 0 {
		t.Fatal("quiet-state storm recorded no cache hits")
	}
}

// TestRequestPoolServesConcurrently floods the pool from many
// goroutines while events keep arriving; every response must be a
// decodable snapshot (the cross-layer storm path, meaningful under
// -race).
func TestRequestPoolServesConcurrently(t *testing.T) {
	m := NewMainUnit(MainConfig{RequestWorkers: 4, RequestBuffer: 1 << 12})
	defer m.Close()
	m.Deliver(event.NewPosition(1, 1, 0, 0, 0, 32))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := 2; f <= 200; f++ {
			m.Deliver(event.NewPosition(event.FlightID(f), uint64(f), 1, 2, 3, 32))
		}
	}()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				state, err := m.RequestInitState()
				if err != nil {
					errs <- err
					return
				}
				if _, err := ede.DecodeSnapshot(state.Bytes(), 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
