package site_test

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/core"
	"adaptmirror/internal/site"
	"adaptmirror/internal/vclock"
)

// reserveAddrs returns n loopback addresses that were free a moment
// ago. The peers manifest names every site's address before any site
// starts, exactly as -peers does in a deployment, so the tests cannot
// bind :0.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs
}

// takeoverMirror starts one wire-takeover-armed mirror on its manifest
// address.
func takeoverMirror(t *testing.T, peers []string, siteID int, standby bool, budget int) *site.MirrorSite {
	t.Helper()
	opts := mirrorOptions(siteID)
	opts.Config.Standby = standby
	opts.Listen = peers[siteID]
	opts.Peers = peers
	opts.TakeoverBudget = budget
	opts.TakeoverInterval = 50 * time.Millisecond
	var m *site.MirrorSite
	waitUntil(t, "site "+opts.Listen+" to bind its manifest address", func() bool {
		var err error
		m, err = site.StartMirror(opts)
		return err == nil
	})
	t.Cleanup(func() { m.Close() })
	return m
}

// takeoverCluster is the shared scenario: central + two armed mirrors
// over real loopback TCP (site 0 fires first: it is the standby, or
// runs the smaller budget), a committed pre-kill stream, the central
// killed, m0 promoted and m1 rejoined. It returns the sites, the
// promoted central with its membership, and the last cut the old
// central committed.
func takeoverCluster(t *testing.T, standby bool, budget0, budget1 int) (m0, m1 *site.MirrorSite, pc *core.Central, member *core.Membership, oldCut vclock.VC) {
	t.Helper()
	peers := reserveAddrs(t, 2)
	m0 = takeoverMirror(t, peers, 0, standby, budget0)
	m1 = takeoverMirror(t, peers, 1, false, budget1)
	central := startCentral(t, centralOptions(10, peers...), m0, m1)
	admission := []uint64{m0.Site.Received(), m1.Site.Received()}

	// Normal operation: events replicate, checkpoint rounds commit a
	// non-zero cut. CHKPT frames ride a different TCP connection than
	// data, so a burst's final round can poll the mirrors before their
	// data lands and commit a stale (even zero) cut; the central's next
	// heartbeat round commits the rest.
	feed(t, central.Addr, 1, 100)
	waitUntil(t, "pre-kill replication and commits", func() bool {
		oldCut = central.Central.CommittedCut()
		return oldCut.Sum() > 0 && oldCut.LessEq(m0.Site.Backup().Committed()) &&
			m0.Site.LastRound() > 0 && m1.Site.LastRound() > 0 &&
			m0.Site.Received()-admission[0] == 100 && m1.Site.Received()-admission[1] == 100
	})

	// Kill the central process-equivalently: listener and links die.
	central.Close()

	// Detection, promotion (direct or by election), and survivor
	// rejoin all happen over the wire.
	waitUntil(t, "takeover promotion", func() bool { return m0.Promoted() != nil })
	pc = m0.Promoted().Central
	member = pc.Membership()
	waitUntil(t, "survivor rejoin", func() bool { return member.Alive(1) })
	return m0, m1, pc, member, oldCut
}

// runWireTakeover verifies the survivor converges byte-exact with the
// promoted central in epoch 1.
func runWireTakeover(t *testing.T, standby bool, budget0, budget1 int) *site.MirrorSite {
	m0, m1, pc, member, oldCut := takeoverCluster(t, standby, budget0, budget1)
	if got := pc.Epoch(); got != 1 {
		t.Fatalf("promoted epoch = %d, want 1", got)
	}
	if m1.Uplink.Addr() != m0.Addr {
		t.Fatalf("survivor uplink = %s, want the promoted address %s", m1.Uplink.Addr(), m0.Addr)
	}

	// Every pre-kill committed event is present on the new central.
	if lp := pc.Main().LastProcessed(); !oldCut.LessEq(lp) {
		t.Fatalf("committed cut %s not covered by promoted state %s", oldCut, lp)
	}

	// The cluster keeps serving: a full source burst ingested at the
	// promoted central reaches the survivor, and epoch-1 rounds commit
	// on it. The burst size matters — it drives many checkpoint rounds
	// while the survivor's replies lag a TCP round trip, which used to
	// trip the promoted central's failure detector into falsely
	// excluding (and silently unmirroring) the healthy survivor.
	feed(t, m0.Addr, 101, 5000)
	waitUntil(t, "post-takeover round on the survivor", func() bool {
		return m1.Site.LastRound()>>checkpoint.EpochShift == 1
	})

	// Byte-exact convergence of the survivor's state with the promoted
	// central's, with the survivor admitted (not burst-excluded).
	waitUntil(t, "byte-exact survivor state", func() bool {
		want := pc.Main().Engine().State().Snapshot()
		got := m1.Site.Main().Engine().State().Snapshot()
		return member.Alive(1) && bytes.Equal(want, got)
	})

	// Operations plane: the survivor reports the takeover it followed.
	d1 := clusterStatus(t, m1.HTTPAddr)
	if d1.CentralEpoch < 1 {
		t.Fatalf("survivor central_epoch = %d, want >= 1", d1.CentralEpoch)
	}
	if d1.Takeover == nil || d1.Takeover.Role != "follower" || d1.Takeover.Epoch != 1 ||
		d1.Takeover.Repoints != 1 || d1.Takeover.CentralAddr != m0.Addr {
		t.Fatalf("survivor takeover status = %+v", d1.Takeover)
	}

	// Metrics: the firing site counted it, the survivor counted the
	// repoint.
	if text := scrapeMetrics(t, m0.HTTPAddr); !strings.Contains(text, `takeover_fired_total{site="mirror0"} 1`) {
		t.Error("promoted site's takeover_fired_total not exported")
	}
	if text := scrapeMetrics(t, m1.HTTPAddr); !strings.Contains(text, `uplink_repoint_total{site="mirror1"} 1`) {
		t.Error("survivor's uplink_repoint_total not exported")
	}
	return m0
}

// TestWireTakeoverStandby: the designated warm standby detects the
// dead central over the wire and promotes directly; the survivor
// redials and rejoins. The survivor runs a larger budget so the
// standby always fires first (the documented deployment shape).
func TestWireTakeoverStandby(t *testing.T) {
	runWireTakeover(t, true, 2, 8)
}

// TestWireTakeoverElection: no standby designated — the mirrors elect
// over TCP. Site 0 fires first and, holding the same committed cut,
// wins the tie-break (lowest site ID).
func TestWireTakeoverElection(t *testing.T) {
	m0 := runWireTakeover(t, false, 2, 5)
	// The election itself left a wire trace.
	if text := scrapeMetrics(t, m0.HTTPAddr); !strings.Contains(text, `election_claims_total{site="mirror0"}`) {
		t.Error("election_claims_total not exported on the winner")
	}
}

// TestPromotedStatusDocument pins what an operator reads at
// /cluster/status on a site that won a takeover: the full central
// document under the site's own name, one link row per manifest slot
// (the site's own slot idle, the survivor's carrying the rejoin
// transfer), the rejoin booked, checkpoint progress carried across the
// epoch, and the takeover block.
func TestPromotedStatusDocument(t *testing.T) {
	m0, _, pc, _, oldCut := takeoverCluster(t, true, 2, 8)
	d := clusterStatus(t, m0.HTTPAddr)
	if d.Site != "mirror0" || d.Role != "central" || d.CentralEpoch != 1 {
		t.Fatalf("promoted document identifies as site=%q role=%q epoch=%d, want mirror0/central/1", d.Site, d.Role, d.CentralEpoch)
	}
	if d.Takeover == nil || !d.Takeover.Armed || d.Takeover.Role != "promoted" || !d.Takeover.Fired ||
		d.Takeover.Epoch != 1 || d.Takeover.Budget != 2 {
		t.Fatalf("takeover block = %+v", d.Takeover)
	}
	if len(d.Links) != 2 || d.Links[0].Mirror != 0 || d.Links[1].Mirror != 1 {
		t.Fatalf("links = %+v, want one row per manifest slot", d.Links)
	}
	if d.Links[0].Sent != 0 {
		t.Fatalf("the promoted site's own slot sent %d events", d.Links[0].Sent)
	}
	if d.Rejoin == nil || d.Rejoin.Snapshots+d.Rejoin.Deltas != 1 {
		t.Fatalf("rejoin accounting = %+v, want the survivor's one transfer", d.Rejoin)
	}
	if d.Checkpoint == nil || !oldCut.LessEq(vclock.VC(d.Checkpoint.Cut)) {
		t.Fatalf("checkpoint block %+v does not carry the old epoch's cut %s", d.Checkpoint, oldCut)
	}
	if len(d.Sites) != 0 || len(d.Audit) != 0 {
		t.Fatalf("a promoted central runs no controller, yet sites=%v audit=%v", d.Sites, d.Audit)
	}
	// The document is built fresh per request from the live central.
	feed(t, m0.Addr, 101, 50)
	waitUntil(t, "the promoted central to process the new stream", func() bool {
		return pc.Main().Processed() >= 150
	})
	if d2 := clusterStatus(t, m0.HTTPAddr); d2.Links[1].Sent == 0 || !d2.At.After(d.At) {
		t.Fatalf("second document is stale: link %+v at %s (first at %s)", d2.Links[1], d2.At, d.At)
	}
}

// TestTakeoverIgnoresIdleCluster: a live but idle central must not be
// usurped. Its heartbeat rounds advance the standby's LastRound, and
// the liveness probe backs them up.
func TestTakeoverIgnoresIdleCluster(t *testing.T) {
	peers := reserveAddrs(t, 2)
	m0 := takeoverMirror(t, peers, 0, true, 2)
	m1 := takeoverMirror(t, peers, 1, false, 8)
	central := startCentral(t, centralOptions(10, peers...), m0, m1)

	// One commit, then no traffic for many times the budget (2 x 50ms).
	feed(t, central.Addr, 1, 30)
	waitUntil(t, "a committed round", func() bool {
		return central.Central.Stats().ChkptCommits > 0 && m0.Site.LastRound() > 0
	})
	time.Sleep(500 * time.Millisecond)
	if m0.Promoted() != nil {
		t.Fatal("standby usurped a live idle central")
	}
	if info := m0.Status().Takeover; info == nil || info.Fired || info.Role != "standby" {
		t.Fatalf("takeover fired against a live central: %+v", info)
	}
}
