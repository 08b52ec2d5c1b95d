package site

import (
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/simnet"
)

// startBareMirror starts a mirror site with no front and no uplink
// peer: a target for a central's data and ctrl.down links.
func startBareMirror(t *testing.T) *MirrorSite {
	t.Helper()
	m, err := StartMirror(MirrorOptions{Config: core.MirrorSiteConfig{SiteID: 0}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// recoveryRequest is the RECOVERY_REQ a site that lost its state sends.
func recoveryRequest(slot uint64) *event.Event {
	return &event.Event{Type: event.TypeRecoveryRequest, Seq: slot}
}

func transfers(c *core.Central) uint64 {
	st := c.RejoinStats()
	return st.Snapshots + st.Deltas
}

// TestRecoveryRequestDispatch: ctrl.up turns a RECOVERY_REQ for a
// slot of the manifest into exactly one rejoin. A request for an
// unknown slot or for a promoted site's own slot transfers nothing. One
// from a slot still counted live comes from a restarted mirror: the
// slot is excluded and re-admitted by one transfer, and a duplicate
// arriving while that transfer is in flight adds none.
func TestRecoveryRequestDispatch(t *testing.T) {
	m := startBareMirror(t)
	// A two-slot manifest whose slot 1 is the central's own, as after a
	// takeover. Slot 0 is admitted by hand, as a mirror that was
	// admitted once.
	s := &CentralSite{Bus: echo.NewBus(), name: "central", self: 1}
	t.Cleanup(func() { s.Close() })
	err := s.assemble([]string{m.Addr, "unused"}, simnet.Profile{}, func(mirrors []core.MirrorLink, detector core.MembershipConfig) (*core.Central, error) {
		c := core.NewCentral(core.CentralConfig{Streams: 1, Mirrors: mirrors, Params: core.Params{CheckpointFreq: 1 << 30}})
		core.NewMembership(c, detector).Exclude(1)
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	member := s.Central.Membership()
	for _, slot := range []uint64{99, 1} {
		s.dispatchCtrlUp(recoveryRequest(slot))
		s.rejoins.wg.Wait()
		if n := transfers(s.Central); n != 0 {
			t.Fatalf("a request for slot %d transferred (%d transfers)", slot, n)
		}
	}

	// Hold slot 0's data link so the first transfer stays in flight
	// while the duplicate is dispatched.
	data := s.links[0]
	data.mu.Lock()
	s.dispatchCtrlUp(recoveryRequest(0))
	if member.Alive(0) {
		t.Fatal("a request from live slot 0 did not exclude it")
	}
	s.dispatchCtrlUp(recoveryRequest(0))
	data.mu.Unlock()
	s.rejoins.wg.Wait()
	if n := transfers(s.Central); !member.Alive(0) || n != 1 {
		t.Fatalf("live slot 0: alive %v after %d transfers, want re-admitted after 1", member.Alive(0), n)
	}
}

// TestRecoveryRequestAfterCloseStartsNoRejoin: once Close has begun, a
// RECOVERY_REQ still in flight starts no rejoin on the closing central.
func TestRecoveryRequestAfterCloseStartsNoRejoin(t *testing.T) {
	m := startBareMirror(t)
	s, err := StartCentral(CentralOptions{Config: core.CentralConfig{Streams: 1}, Listen: "127.0.0.1:0", Mirrors: []string{m.Addr}})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A started rejoin would block on slot 0's data link, holding the
	// wait group.
	data := s.links[0]
	data.mu.Lock()
	defer data.mu.Unlock()
	s.dispatchCtrlUp(recoveryRequest(0))
	waited := make(chan struct{})
	go func() {
		s.rejoins.wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("a recovery request after Close started a rejoin")
	}
}
