package site_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/site"
	"adaptmirror/internal/vclock"
)

func TestLinkRedials(t *testing.T) {
	up := site.NewLink("127.0.0.1:1", site.ChanCtrlUp, site.LinkOptions{})
	defer up.Close()
	if err := up.Submit(event.NewControl(event.TypeChkptReply, nil)); err == nil {
		t.Fatal("submit to unreachable central must fail")
	}
	// Bring a central up and retry.
	opts := centralOptions(50)
	opts.HTTP = ""
	central := startCentral(t, opts)
	up.Repoint(central.Addr)
	if err := up.Submit(event.NewControl(event.TypeChkptReply, nil)); err != nil {
		t.Fatalf("redial failed: %v", err)
	}
}

// TestLinkBoundedWrite pins the stalled-peer fix: a peer that accepts
// the connection but never drains it must fail a submission in bounded
// time instead of holding the link mutex forever, and the next
// submission must redial rather than reuse the wedged connection.
func TestLinkBoundedWrite(t *testing.T) {
	peer := newAcceptCounter(t)
	l := site.NewLink(peer.ln.Addr().String(), site.ChanCtrlUp, site.LinkOptions{WriteTimeout: 200 * time.Millisecond})
	defer l.Close()

	// 64KiB payloads fill the socket buffers within a few MB of
	// writes; the write deadline must then surface an error.
	e := event.NewPosition(1, 1, 0, 0, 0, 64<<10)
	e.VT = vclock.VC{1}
	start := time.Now()
	var submitErr error
	for i := 0; i < 4096 && submitErr == nil && time.Since(start) < 20*time.Second; i++ {
		submitErr = l.Submit(e)
	}
	if submitErr == nil {
		t.Fatal("submissions to a never-reading peer never failed")
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("bounded-write failure took %s", elapsed)
	}
	if err := l.Submit(event.NewControl(event.TypeChkptReply, nil)); err != nil {
		t.Fatalf("submission after the failure: %v", err)
	}
	waitUntil(t, "the redial to reach the peer", func() bool { return peer.accepted() == 2 })
}

// TestLinkClosedStaysClosed: a site that is shutting down must not
// reconnect. After Close every submission fails fast with
// echo.ErrClosed and dials nothing, and Repoint does not bring the link
// back.
func TestLinkClosedStaysClosed(t *testing.T) {
	peer := newAcceptCounter(t)
	l := site.NewLink(peer.ln.Addr().String(), site.ChanCtrlUp, site.LinkOptions{})
	if err := l.Submit(event.NewControl(event.TypeChkptReply, nil)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the first dial to reach the peer", func() bool { return peer.accepted() == 1 })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	batch := []*event.Event{event.NewPosition(1, 1, 0, 0, 0, 64)}
	if err := l.Submit(batch[0]); !errors.Is(err, echo.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want echo.ErrClosed", err)
	}
	if err := l.SubmitOwned(batch, nil); !errors.Is(err, echo.ErrClosed) {
		t.Fatalf("SubmitOwned after Close = %v, want echo.ErrClosed", err)
	}
	l.Repoint(peer.ln.Addr().String())
	if err := l.Submit(batch[0]); !errors.Is(err, echo.ErrClosed) {
		t.Fatalf("Submit after Close and Repoint = %v, want echo.ErrClosed", err)
	}
	// A leaked dial would have been accepted within loopback latency.
	time.Sleep(50 * time.Millisecond)
	if n := peer.accepted(); n != 1 {
		t.Fatalf("the peer accepted %d connections, want only the one made before Close", n)
	}
}

// acceptCounter is a listener that accepts and holds every connection
// without ever reading from it.
type acceptCounter struct {
	ln    net.Listener
	count chan int // 1-buffered current accept count
}

func newAcceptCounter(t *testing.T) *acceptCounter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := &acceptCounter{ln: ln, count: make(chan int, 1)}
	a.count <- 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
			a.count <- 1 + <-a.count
		}
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return a
}

func (a *acceptCounter) accepted() int {
	n := <-a.count
	a.count <- n
	return n
}
