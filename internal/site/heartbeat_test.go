package site_test

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/simnet"
	"adaptmirror/internal/site"
)

// TestIdleCentralExcludesDeadMirror: with no traffic at all, the
// central's heartbeat rounds still count misses, so a mirror that dies
// on an idle cluster is excluded within (budget+2) heartbeat intervals
// while the live one stays admitted.
func TestIdleCentralExcludesDeadMirror(t *testing.T) {
	m0, m1 := startMirror(t, mirrorOptions(0)), startMirror(t, mirrorOptions(1))
	central := startCentral(t, centralOptions(10, m0.Addr, m1.Addr), m0, m1)
	c := central.Central
	member := c.Membership()

	feed(t, central.Addr, 1, 20)
	waitUntil(t, "a commit covering the stream", func() bool {
		cut := c.CommittedCut()
		return cut != nil && cut.Sum() == 20
	})

	m1.Close()
	closed := time.Now()
	waitUntil(t, "the idle central to exclude the dead mirror", func() bool { return !member.Alive(1) })
	if took, bound := time.Since(closed), (core.DefaultMissedRounds+2)*site.HeartbeatInterval; took > bound {
		t.Fatalf("exclusion took %v, want at most %v", took, bound)
	}
	time.Sleep(2 * site.HeartbeatInterval)
	if !member.Alive(0) {
		t.Fatalf("failed %v, want mirror 0 live", member.Failed())
	}
}

// TestIdleCentralCommitsBurstTail: a burst of 237 events at checkpoint
// frequency 50 leaves a tail of 37 that no trigger covers; it is fed
// after the rounds the first 200 earned have committed, so no batching
// luck folds it into their proposals. The heartbeat rounds after it
// commit the whole burst, so every backup queue drains.
func TestIdleCentralCommitsBurstTail(t *testing.T) {
	m0, m1 := startMirror(t, mirrorOptions(0)), startMirror(t, mirrorOptions(1))
	central := startCentral(t, centralOptions(50, m0.Addr, m1.Addr), m0, m1)
	c := central.Central
	drained := func(n uint64) func() bool {
		return func() bool {
			cut := c.CommittedCut()
			return c.Main().Processed() == n && cut != nil && cut.Sum() == n &&
				c.Backup().Len() == 0 && m0.Site.Backup().Len() == 0 && m1.Site.Backup().Len() == 0
		}
	}
	feed(t, central.Addr, 1, 200)
	waitUntil(t, "the triggered rounds to commit the first 200 events", drained(200))
	feed(t, central.Addr, 201, 37)
	waitUntil(t, "every backup to drain under a cut covering the burst", drained(237))
}

// gatedProxy forwards TCP connections to a target address; everything
// bound for the target passes a simnet.Gate, so a test can stall one
// direction of a site's link without tearing it down.
type gatedProxy struct {
	addr string

	mu    sync.Mutex
	down  bool
	gates []*simnet.Gate
	conns []net.Conn
}

func startGatedProxy(t *testing.T, target string) *gatedProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &gatedProxy{addr: ln.Addr().String()}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			g := simnet.NewGate(out)
			p.mu.Lock()
			g.SetDown(p.down)
			p.gates = append(p.gates, g)
			p.conns = append(p.conns, in)
			p.mu.Unlock()
			go func() { _, _ = io.Copy(g, in); g.Close() }()
			go func() { _, _ = io.Copy(in, out); in.Close() }()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, g := range p.gates {
			g.Close()
		}
		for _, c := range p.conns {
			c.Close()
		}
	})
	return p
}

// setDown stalls (true) or releases (false) every byte bound for the
// target.
func (p *gatedProxy) setDown(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
	for _, g := range p.gates {
		g.SetDown(down)
	}
}

// TestDetectorExcludedMirrorAsksBack: a mirror that keeps running while
// the detector excludes it — its replies stalled on the way to the
// central past the budget — is told so on its control downlink, asks
// back from its committed cut once its uplink flows again, and is
// re-admitted with no restart, converging byte-exact under further
// traffic.
func TestDetectorExcludedMirrorAsksBack(t *testing.T) {
	m0, m1 := startMirror(t, mirrorOptions(0)), startMirror(t, mirrorOptions(1))
	central, err := site.StartCentral(centralOptions(10, m0.Addr, m1.Addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { central.Close() })
	c := central.Central
	member := c.Membership()
	uplink := startGatedProxy(t, central.Addr)
	m0.Follow(central.Addr)
	m1.Follow(uplink.addr)
	waitUntil(t, "both mirrors' admission", func() bool { return member.Live() == 2 })

	feed(t, central.Addr, 1, 100)
	waitUntil(t, "a commit covering the stream", func() bool {
		cut := c.CommittedCut()
		return cut != nil && cut.Sum() == 100
	})
	transfers := c.RejoinStats()

	uplink.setDown(true)
	waitUntil(t, "the detector to exclude the stalled mirror", func() bool { return !member.Alive(1) })
	if !member.Alive(0) {
		t.Fatalf("failed %v, want mirror 0 live", member.Failed())
	}
	feed(t, central.Addr, 101, 100)
	uplink.setDown(false)
	waitUntil(t, "the running mirror's re-admission", func() bool { return member.Alive(1) })
	if st := c.RejoinStats(); st.Snapshots+st.Deltas == transfers.Snapshots+transfers.Deltas {
		t.Fatalf("re-admitted without a transfer: %+v", st)
	}

	feed(t, central.Addr, 201, 100)
	waitUntil(t, "byte-exact convergence and empty backups", func() bool {
		want := c.Main().Engine().State().Snapshot()
		got := m1.Site.Main().Engine().State().Snapshot()
		return c.Main().Processed() == 300 && bytes.Equal(want, got) &&
			c.Backup().Len() == 0 && m1.Site.Backup().Len() == 0
	})
	if live := member.Live(); live != 2 {
		t.Fatalf("Live = %d, want 2", live)
	}
}
