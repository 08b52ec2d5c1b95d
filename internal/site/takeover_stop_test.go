package site

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/event"
)

// TestTakeoverDropsInputsAfterStop: once Close has stopped the takeover
// runtime, a frame still in flight starts no goroutine and runs no
// effect.
func TestTakeoverDropsInputsAfterStop(t *testing.T) {
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	s, err := StartMirror(MirrorOptions{
		Config:           core.MirrorSiteConfig{SiteID: 0},
		Listen:           "127.0.0.1:0",
		Peers:            []string{"self", peer.Addr().String()},
		TakeoverBudget:   1,
		TakeoverInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := s.takeover
	before := rt.node.Info()
	s.Close()

	// On a live runtime each of these has an effect: the claim for a new
	// epoch is answered on the peer's ctrl.down, and the announcement
	// repoints the uplink.
	rt.handleControl(&event.Event{Type: event.TypeElect, Payload: core.ElectionClaim{Epoch: 1, Site: 1}.Encode()})
	ann := core.TakeoverAnnouncement{Epoch: 1, Addr: peer.Addr().String()}
	rt.handleControl(&event.Event{Type: event.TypeTakeover, Payload: ann.Encode()})
	rt.step(core.TakeoverInput{Kind: core.TakeoverTick})

	waited := make(chan struct{})
	go func() {
		rt.work.wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("an input after stop started work the runtime waits for")
	}
	if got := rt.node.Info(); got != before {
		t.Fatalf("node stepped after stop: %+v, was %+v", got, before)
	}
	if s.Uplink.Addr() != "" || s.Takeover.Repoints.Load() != 0 {
		t.Fatalf("announcement followed after stop: uplink %q, repoints %d", s.Uplink.Addr(), s.Takeover.Repoints.Load())
	}
	// A claim reply is sent by admitted work, which has finished by now,
	// so a dial would already sit in the listener's backlog.
	peer.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if conn, err := peer.Accept(); !errors.Is(err, os.ErrDeadlineExceeded) {
		if conn != nil {
			conn.Close()
		}
		t.Fatalf("claim answered after stop (accept: %v)", err)
	}
}
