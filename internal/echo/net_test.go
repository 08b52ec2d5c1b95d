package echo

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/event"
)

// startServer returns a serving Server and its address.
func startServer(t *testing.T, bus *Bus) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bus)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

func TestSendLinkDeliversToBusChannel(t *testing.T) {
	bus := NewBus()
	ch, _ := bus.Open("ingress")
	var n atomic.Uint64
	ch.Subscribe(func(e *event.Event) { n.Add(1) })
	_, addr := startServer(t, bus)

	link, err := DialSend(addr, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for i := uint64(0); i < 25; i++ {
		if err := link.Submit(ev(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "server-side deliveries", func() bool { return n.Load() == 25 })
	st := link.Stats()
	if st.Submitted != 25 {
		t.Fatalf("link Submitted = %d, want 25", st.Submitted)
	}
}

func TestSendLinkSubmitOwned(t *testing.T) {
	bus := NewBus()
	ch, _ := bus.Open("ingress")
	var mu sync.Mutex
	var got []uint64
	ch.Subscribe(func(e *event.Event) {
		mu.Lock()
		got = append(got, e.Seq)
		mu.Unlock()
	})
	_, addr := startServer(t, bus)

	link, err := DialSend(addr, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	batch := make([]*event.Event, 30)
	for i := range batch {
		batch[i] = ev(uint64(i))
	}
	if err := link.SubmitOwned(batch, nil); err != nil {
		t.Fatal(err)
	}
	if err := link.SubmitOwned(nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server-side batch deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 30
	})
	mu.Lock()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("delivery %d has seq %d: order violated", i, s)
		}
	}
	mu.Unlock()
	st := link.Stats()
	if st.Submitted != 30 || st.Bytes != 30*3 {
		t.Fatalf("link Stats = %+v", st)
	}
}

// TestSendLinkWriteTimeoutRearms: the write deadline is re-armed only
// when less than half the timeout is left, so a link kept busy for
// several timeouts against a reading peer must never see it expire,
// while a peer that stops reading still fails a write within the bound.
func TestSendLinkWriteTimeoutRearms(t *testing.T) {
	const timeout = 100 * time.Millisecond
	bus := NewBus()
	ch, _ := bus.Open("ingress")
	ch.Subscribe(func(*event.Event) {})
	_, addr := startServer(t, bus)
	link, err := DialSendTimeout(addr, "ingress", timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for start := time.Now(); time.Since(start) < 4*timeout; time.Sleep(timeout / 20) {
		if err := link.Submit(ev(1)); err != nil {
			t.Fatalf("busy link failed after %s: %v", time.Since(start), err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stalled, err := DialSendTimeout(ln.Addr().String(), "ingress", timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	big := &event.Event{Type: event.TypeFAAPosition, Coalesced: 1, Payload: make([]byte, 64<<10)}
	start := time.Now()
	for err == nil && time.Since(start) < 10*time.Second {
		err = stalled.Submit(big)
	}
	if err == nil {
		t.Fatal("submissions to a never-reading peer never failed")
	}
}

func TestRecvLinkReceivesFromBusChannel(t *testing.T) {
	bus := NewBus()
	ch, _ := bus.Open("updates")
	_, addr := startServer(t, bus)

	link, err := DialRecv(addr, "updates")
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	var got atomic.Uint64
	link.Subscribe(func(e *event.Event) { got.Add(1) })

	// Wait for the server-side subscription to attach before sending.
	waitFor(t, "remote subscription", func() bool { return ch.Subscribers() == 1 })
	for i := uint64(0); i < 10; i++ {
		if err := ch.Submit(ev(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "client-side deliveries", func() bool { return got.Load() == 10 })
	if link.Received() != 10 {
		t.Fatalf("Received = %d, want 10", link.Received())
	}
}

func TestEndToEndPipe(t *testing.T) {
	// source --SendLink--> server bus "data" --RecvLink--> sink
	bus := NewBus()
	ch, _ := bus.Open("data")
	_, addr := startServer(t, bus)

	recv, err := DialRecv(addr, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var seqs []uint64
	done := make(chan struct{})
	recv.Subscribe(func(e *event.Event) {
		seqs = append(seqs, e.Seq)
		if len(seqs) == 50 {
			close(done)
		}
	})
	waitFor(t, "subscription attach", func() bool { return ch.Subscribers() == 1 })

	send, err := DialSend(addr, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	for i := uint64(0); i < 50; i++ {
		e := ev(i)
		e.Payload = make([]byte, 512)
		if err := send.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out; got %d events", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("event %d has seq %d: ordering violated", i, s)
		}
	}
}

func TestRecvLinkCleanDisconnectDetachesSubscription(t *testing.T) {
	bus := NewBus()
	ch, _ := bus.Open("data")
	_, addr := startServer(t, bus)

	link, err := DialRecv(addr, "data")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription attach", func() bool { return ch.Subscribers() == 1 })
	link.Close()
	waitFor(t, "subscription detach", func() bool { return ch.Subscribers() == 0 })
}

func TestServerCloseUnblocksLinks(t *testing.T) {
	bus := NewBus()
	bus.Open("data")
	srv, addr := startServer(t, bus)

	recv, err := DialRecv(addr, "data")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	waitFor(t, "recv link to observe close", func() bool { return recv.Err() != nil })
	recv.Close()

	send, err := DialSend(addr, "data")
	if err == nil {
		// Dial may have raced the close; submitting must eventually fail.
		var failed bool
		for i := 0; i < 1000 && !failed; i++ {
			failed = send.Submit(ev(1)) != nil
		}
		send.Close()
		if !failed {
			t.Fatal("send link kept working after server close")
		}
	}
}

func TestSendLinkSubmitAfterClose(t *testing.T) {
	bus := NewBus()
	bus.Open("data")
	_, addr := startServer(t, bus)
	link, err := DialSend(addr, "data")
	if err != nil {
		t.Fatal(err)
	}
	link.Close()
	if err := link.Submit(ev(1)); err == nil {
		t.Fatal("Submit after Close must fail")
	}
}

func TestHandshakeRejectsBadMode(t *testing.T) {
	bus := NewBus()
	_, addr := startServer(t, bus)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{'X', 4, 0, 'd', 'a', 't', 'a'})
	// Server must close the connection.
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept connection open after bad handshake")
	}
}

func TestHandshakeNameTooLong(t *testing.T) {
	conn, _ := net.Pipe()
	defer conn.Close()
	long := make([]byte, 300)
	if err := writeHandshake(conn, modeSend, string(long)); err == nil {
		t.Fatal("want error for oversized channel name")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialSend("127.0.0.1:1", "data"); err == nil {
		t.Fatal("DialSend to closed port must fail")
	}
	if _, err := DialRecv("127.0.0.1:1", "data"); err == nil {
		t.Fatal("DialRecv to closed port must fail")
	}
}

func TestBidirectionalControlPair(t *testing.T) {
	// The pattern sites use for control traffic: two directional
	// channels, one per direction.
	bus := NewBus()
	up, _ := bus.Open("ctrl.up")
	down, _ := bus.Open("ctrl.down")
	_, addr := startServer(t, bus)

	sendUp, err := DialSend(addr, "ctrl.up")
	if err != nil {
		t.Fatal(err)
	}
	defer sendUp.Close()
	recvDown, err := DialRecv(addr, "ctrl.down")
	if err != nil {
		t.Fatal(err)
	}
	defer recvDown.Close()

	// Server side: echo each ctrl.up event back on ctrl.down.
	up.Subscribe(func(e *event.Event) {
		reply := e.Clone()
		reply.Type = event.TypeChkptReply
		down.Submit(reply)
	})
	var got atomic.Uint64
	recvDown.Subscribe(func(e *event.Event) {
		if e.Type == event.TypeChkptReply {
			got.Add(1)
		}
	})
	waitFor(t, "down subscription", func() bool { return down.Subscribers() == 1 })

	for i := 0; i < 5; i++ {
		sendUp.Submit(event.NewControl(event.TypeChkpt, nil))
	}
	waitFor(t, "round trips", func() bool { return got.Load() == 5 })
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	bus := NewBus()
	ch, _ := bus.Open("data")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(bus)
	go srv.Serve(l)
	defer srv.Close()

	send, err := DialSend(l.Addr().String(), "data")
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	got := make(chan struct{}, 1024)
	ch.Subscribe(func(*event.Event) { got <- struct{}{} })
	e := ev(1)
	e.Payload = make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.Submit(e); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}
