package echo

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/event"
)

func ev(seq uint64) *event.Event {
	return &event.Event{Type: event.TypeFAAPosition, Seq: seq, Coalesced: 1, Payload: []byte{1, 2, 3}}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestLocalDeliveryOrder(t *testing.T) {
	c := NewLocal("data")
	var mu sync.Mutex
	var got []uint64
	_, err := c.Subscribe(func(e *event.Event) {
		mu.Lock()
		got = append(got, e.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := c.Submit(ev(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 100
	})
	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("delivery %d has seq %d: order violated", i, s)
		}
	}
}

func TestLocalSubmitOwned(t *testing.T) {
	c := NewLocal("data")
	var mu sync.Mutex
	var got []uint64
	if _, err := c.Subscribe(func(e *event.Event) {
		mu.Lock()
		got = append(got, e.Seq)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	batch := make([]*event.Event, 40)
	for i := range batch {
		batch[i] = ev(uint64(i))
	}
	if err := c.SubmitOwned(batch[:20], nil); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitOwned(batch[20:], nil); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitOwned(nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 40
	})
	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("delivery %d has seq %d: order violated", i, s)
		}
	}
	st := c.Stats()
	if st.Submitted != 40 || st.Delivered != 40 || st.Bytes != 40*3 {
		t.Fatalf("Stats = %+v", st)
	}
	c.Close()
	if err := c.SubmitOwned(batch[:1], nil); err != ErrClosed {
		t.Fatalf("SubmitOwned after Close = %v, want ErrClosed", err)
	}
}

func TestLocalFanOut(t *testing.T) {
	c := NewLocal("data")
	const subs = 5
	var counts [subs]atomic.Uint64
	for i := 0; i < subs; i++ {
		i := i
		if _, err := c.Subscribe(func(*event.Event) { counts[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		c.Submit(ev(uint64(i)))
	}
	waitFor(t, "fan-out deliveries", func() bool {
		for i := range counts {
			if counts[i].Load() != 20 {
				return false
			}
		}
		return true
	})
	st := c.Stats()
	if st.Submitted != 20 || st.Delivered != 100 || st.Bytes != 60 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestSlowSubscriberDoesNotBlockOthers(t *testing.T) {
	c := NewLocal("data")
	slowRelease := make(chan struct{})
	var slowStarted sync.Once
	started := make(chan struct{})
	c.Subscribe(func(*event.Event) {
		slowStarted.Do(func() { close(started) })
		<-slowRelease
	})
	var fast atomic.Uint64
	c.Subscribe(func(*event.Event) { fast.Add(1) })
	for i := 0; i < 10; i++ {
		c.Submit(ev(uint64(i)))
	}
	<-started
	waitFor(t, "fast subscriber to finish", func() bool { return fast.Load() == 10 })
	close(slowRelease)
}

func TestSubmitAfterClose(t *testing.T) {
	c := NewLocal("data")
	c.Close()
	if err := c.Submit(ev(1)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := c.Subscribe(func(*event.Event) {}); err != ErrClosed {
		t.Fatalf("Subscribe err = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestCloseDeliversPending(t *testing.T) {
	c := NewLocal("data")
	var n atomic.Uint64
	gate := make(chan struct{})
	c.Subscribe(func(*event.Event) {
		<-gate
		n.Add(1)
	})
	for i := 0; i < 50; i++ {
		c.Submit(ev(uint64(i)))
	}
	close(gate)
	c.Close() // Close waits for dispatchers to drain
	if n.Load() != 50 {
		t.Fatalf("delivered %d, want 50 (pending events must be delivered on Close)", n.Load())
	}
}

func TestSubscriptionCancel(t *testing.T) {
	c := NewLocal("data")
	var n atomic.Uint64
	sub, _ := c.Subscribe(func(*event.Event) { n.Add(1) })
	c.Submit(ev(1))
	waitFor(t, "first delivery", func() bool { return n.Load() == 1 })
	sub.Cancel()
	c.Submit(ev(2))
	time.Sleep(10 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatalf("delivered %d after Cancel, want 1", n.Load())
	}
	if c.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d, want 0", c.Subscribers())
	}
	sub.Cancel() // idempotent
}

func TestSubscriptionPending(t *testing.T) {
	c := NewLocal("data")
	gate := make(chan struct{})
	sub, _ := c.Subscribe(func(*event.Event) { <-gate })
	for i := 0; i < 10; i++ {
		c.Submit(ev(uint64(i)))
	}
	// At least 8 must be queued (one may be in the handler, one batch
	// may have been taken).
	waitFor(t, "queue to fill", func() bool { return sub.Pending() >= 8 })
	close(gate)
	waitFor(t, "drain", func() bool { return sub.Pending() == 0 })
	c.Close()
}

func TestDerivedChannelFilters(t *testing.T) {
	src := NewLocal("data")
	d, err := Derive(src, "faa-only", func(e *event.Event) bool {
		return e.Type == event.TypeFAAPosition
	})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Uint64
	d.Subscribe(func(e *event.Event) {
		if e.Type != event.TypeFAAPosition {
			t.Error("filtered type leaked through")
		}
		n.Add(1)
	})
	src.Submit(ev(1))
	src.Submit(&event.Event{Type: event.TypeDeltaStatus, Seq: 2})
	src.Submit(ev(3))
	waitFor(t, "derived deliveries", func() bool { return n.Load() == 2 })
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	src.Submit(ev(4))
	time.Sleep(5 * time.Millisecond)
	if n.Load() != 2 {
		t.Fatalf("derived channel delivered after Close: %d", n.Load())
	}
}

func TestBusOpenIdempotent(t *testing.T) {
	b := NewBus()
	c1, err := b.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := b.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("Open must return the same channel for the same name")
	}
	if _, err := b.Lookup("data"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown channel must fail")
	}
}

func TestBusNamesSorted(t *testing.T) {
	b := NewBus()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		b.Open(n)
	}
	names := b.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("Names = %v", names)
	}
}

func TestBusCloseClosesChannels(t *testing.T) {
	b := NewBus()
	c, _ := b.Open("data")
	b.Close()
	if err := c.Submit(ev(1)); err != ErrClosed {
		t.Fatalf("Submit after bus close = %v, want ErrClosed", err)
	}
	if _, err := b.Open("new"); err != ErrClosed {
		t.Fatalf("Open after bus close = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestConcurrentSubmitters(t *testing.T) {
	c := NewLocal("data")
	var n atomic.Uint64
	c.Subscribe(func(*event.Event) { n.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Submit(ev(uint64(i)))
			}
		}()
	}
	wg.Wait()
	waitFor(t, "all deliveries", func() bool { return n.Load() == 800 })
}

func BenchmarkLocalSubmit(b *testing.B) {
	c := NewLocal("data")
	var n atomic.Uint64
	c.Subscribe(func(*event.Event) { n.Add(1) })
	e := ev(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(e)
	}
	b.StopTimer()
	c.Close()
}
