package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/oislog"
	"adaptmirror/internal/thinclient"
	"adaptmirror/internal/vclock"
)

// TestFullDeployment brings up a 1-central + 2-mirror deployment over
// real loopback TCP (the exact wiring mirrord uses), streams events
// through the ingress channel like oisgen would, serves client
// requests over HTTP like loadgen would, and verifies replication.
func TestFullDeployment(t *testing.T) {
	// Mirrors first (the documented startup order).
	m1, err := startMirror(mirrorOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "unused-until-dialed",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	m2, err := startMirror(mirrorOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "unused-until-dialed",
		SiteID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors:   []string{m1.Addr, m2.Addr},
		Selective: 10,
		ChkptFreq: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()

	// Point the mirrors' lazy uplinks at the now-known central address.
	m1.uplink.addr = central.Addr
	m2.uplink.addr = central.Addr

	// Stream events like oisgen.
	src, err := echo.DialSend(central.Addr, chanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const total = 200
	for i := uint64(1); i <= total; i++ {
		e := event.NewPosition(event.FlightID(1+i%4), i, float64(i), -float64(i), 9000, 256)
		if err := src.Submit(e); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for the pipeline to replicate (selective: 1 in 10 events
	// per flight is mirrored).
	deadline := time.Now().Add(10 * time.Second)
	for central.Central.Main().Processed() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := central.Central.Main().Processed(); got != total {
		t.Fatalf("central processed %d, want %d", got, total)
	}
	wantMirrored := central.Central.Stats().Mirrored
	if wantMirrored == 0 || wantMirrored >= total {
		t.Fatalf("Mirrored = %d, want selective reduction", wantMirrored)
	}
	for _, m := range []*mirrorSite{m1, m2} {
		for m.Mirror.Received() < wantMirrored && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := m.Mirror.Received(); got != wantMirrored {
			t.Fatalf("mirror received %d, want %d", got, wantMirrored)
		}
	}

	// Serve a client from a mirror's HTTP front, like loadgen.
	resp, err := http.Get("http://" + m1.HTTPAddr + "/init")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("init request failed: %d %v", resp.StatusCode, err)
	}
	if len(body) == 0 {
		t.Fatal("empty init state from mirror")
	}

	// Checkpoint control flow ran over the real links.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, commits := centralCommits(central); commits > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no checkpoint commits over the deployed control channels")
}

func centralCommits(c *centralSite) (rounds, commits uint64) {
	st := c.Central.Stats()
	return st.ChkptRounds, st.ChkptCommits
}

func TestStartMirrorBadListen(t *testing.T) {
	if _, err := startMirror(mirrorOptions{Listen: "256.0.0.1:bad", HTTP: "127.0.0.1:0", Central: "x"}); err == nil {
		t.Fatal("bad listen address must fail")
	}
}

func TestStartCentralBadMirror(t *testing.T) {
	_, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors: []string{"127.0.0.1:1"},
	})
	if err == nil {
		t.Fatal("unreachable mirror must fail central startup")
	}
}

func TestLazyUplinkRedials(t *testing.T) {
	up := &lazyUplink{addr: "127.0.0.1:1", name: chanCtrlUp}
	if err := up.Submit(event.NewControl(event.TypeChkptReply, nil)); err == nil {
		t.Fatal("submit to unreachable central must fail")
	}
	// Bring a central up and retry.
	central, err := startCentral(centralOptions{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	up.addr = central.Addr
	if err := up.Submit(event.NewControl(event.TypeChkptReply, nil)); err != nil {
		t.Fatalf("redial failed: %v", err)
	}
	up.Close()
}

// countingRef is a refcounting fake event.Ref.
type countingRef struct{ n atomic.Int64 }

func (r *countingRef) Retain()  { r.n.Add(1) }
func (r *countingRef) Release() { r.n.Add(-1) }

// TestLazyUplinkDataContract is internal/cluster's
// TestDataLinkContract for the one data link that lives in this
// package: batches submitted through a lazyUplink reach a running
// mirror site in order exactly once, the uplink keeps no reference, and
// the site's backup trims back to empty.
func TestLazyUplinkDataContract(t *testing.T) {
	m, err := startMirror(mirrorOptions{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "unused"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	up := &lazyUplink{addr: m.Addr, name: chanData}
	defer up.Close()

	const batches, per = 3, 16
	var ref countingRef
	var last vclock.VC
	for b := 0; b < batches; b++ {
		batch := make([]*event.Event, per)
		for i := range batch {
			seq := uint64(b*per + i + 1)
			e := event.NewPosition(event.FlightID(1+seq%4), seq, float64(seq), 2, 3, 64)
			e.VT = vclock.VC{seq}
			batch[i], last = e, e.VT
		}
		ref.Retain()
		if err := up.SubmitOwned(batch, &ref); err != nil {
			t.Fatal(err)
		}
		ref.Release()
		if n := ref.n.Load(); n != 0 {
			t.Fatalf("uplink holds %d references after batch %d returned", n, b)
		}
	}
	waitUntil(t, 5*time.Second, "the mirror to retain every event", func() bool { return m.Mirror.Backup().Len() >= batches*per })
	got := m.Mirror.Backup().Snapshot()
	if m.Mirror.Received() != batches*per || len(got) != batches*per {
		t.Fatalf("received %d, retained %d, want %d of each: not exactly once", m.Mirror.Received(), len(got), batches*per)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("arrival %d has seq %d: order violated", i, e.Seq)
		}
	}
	waitUntil(t, 5*time.Second, "the replica to apply every event", func() bool { return m.Mirror.Processed() >= batches*per })
	m.Mirror.Backup().Commit(last)
	if n := m.Mirror.Backup().Len(); n != 0 {
		t.Fatalf("backup retains %d events after the commit", n)
	}
}

func TestCentralWithAdaptation(t *testing.T) {
	m, err := startMirror(mirrorOptions{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "pending"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors:   []string{m.Addr},
		ChkptFreq: 10,
		Adapt:     true, AdaptPrimary: 1, AdaptSecondary: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	m.uplink.addr = central.Addr

	if central.Controller == nil {
		t.Fatal("adaptation controller not installed")
	}
	if got := central.Central.GetParams().CheckpointFreq; got != 50 {
		t.Fatalf("baseline regime not applied: chkpt freq = %d, want 50", got)
	}

	// Saturate the mirror's request buffer while events flow so a
	// checkpoint round observes pending > primary and engages. The
	// buffer must stay deep for tens of milliseconds (the virtual CPU
	// drains ~30 requests/ms), so pile up thousands.
	for i := 0; i < 3000; i++ {
		m.Mirror.Main().Request(&core.InitRequest{})
	}
	src, err := echo.DialSend(central.Addr, chanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := uint64(1); i <= 200; i++ {
		src.Submit(event.NewPosition(1, i, 0, 0, 0, 64))
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e, _ := central.Controller.Transitions(); e > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("adaptation never engaged in deployed central")
}

func TestCentralWithOperationsLog(t *testing.T) {
	dir := t.TempDir()
	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", LogDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := echo.DialSend(central.Addr, chanIngress)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := uint64(1); i <= n; i++ {
		src.Submit(event.NewPosition(1, i, float64(i), 0, 9000, 64))
	}
	deadline := time.Now().Add(10 * time.Second)
	for central.Central.Main().Processed() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	src.Close()
	central.Close()

	count, err := oislog.Replay(dir, func(*event.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("operations log replayed %d records, want %d", count, n)
	}
}

// TestRemoteThinClientFollowsUpdates exercises the full distributed
// client story oisclient implements: HTTP init from a mirror +
// update-stream subscription from the central site's updates channel.
func TestRemoteThinClientFollowsUpdates(t *testing.T) {
	m, err := startMirror(mirrorOptions{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "pending", StatePad: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors: []string{m.Addr}, Selective: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	m.uplink.addr = central.Addr

	view := thinclient.New(64)
	updatesLink, err := echo.DialRecv(central.Addr, chanUpdates)
	if err != nil {
		t.Fatal(err)
	}
	defer updatesLink.Close()
	updatesLink.Subscribe(func(e *event.Event) { view.Apply(e) })
	// Wait for the server-side subscription to attach before feeding
	// (a real client instead fetches /init after subscribing and
	// relies on stale-update filtering for the overlap). The updates
	// channel already has one subscriber when -log is configured;
	// here it starts with none, so wait for ours.
	updatesCh, err := central.bus.Lookup(chanUpdates)
	if err != nil {
		t.Fatal(err)
	}
	attachDeadline := time.Now().Add(5 * time.Second)
	for updatesCh.Subscribers() < 1 && time.Now().Before(attachDeadline) {
		time.Sleep(time.Millisecond)
	}

	src, err := echo.DialSend(central.Addr, chanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := uint64(1); i <= 60; i++ {
		src.Submit(event.NewPosition(event.FlightID(1+i%3), i, float64(i), 0, 9000, 128))
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if applied, _ := view.Stats(); applied >= 60 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if applied, _ := view.Stats(); applied < 60 {
		t.Fatalf("client applied %d updates, want 60", applied)
	}
	if view.Flights() != 3 {
		t.Fatalf("client tracks %d flights, want 3", view.Flights())
	}

	// And an /init fetch from the mirror produces a loadable snapshot.
	resp, err := http.Get("http://" + m.HTTPAddr + "/init")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fresh := thinclient.New(64)
	if err := fresh.Initialize(body); err != nil {
		t.Fatalf("snapshot from mirror not loadable: %v", err)
	}
}

// scrapeMetrics fetches one site's /metrics and checks conformance.
func scrapeMetrics(t *testing.T, httpAddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics failed: %d %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want Prometheus text exposition", ct)
	}
	if err := obs.LintPrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics on %s not conformant: %v\n%s", httpAddr, err, body)
	}
	return string(body)
}

// TestDeployedMetricsEndpoints brings up a real 1+1 deployment, runs
// traffic, and scrapes /metrics on both sites: the central exposition
// must cover ingest, fan-out, checkpointing, and the lifecycle stages;
// the mirror's must cover its receive path and serving counters. With
// -adapt on and an -auditlog path, the transition trail lands on disk.
func TestDeployedMetricsEndpoints(t *testing.T) {
	auditPath := t.TempDir() + "/audit.jsonl"
	m, err := startMirror(mirrorOptions{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "pending"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors:   []string{m.Addr},
		ChkptFreq: 10,
		Adapt:     true, AdaptPrimary: 1, AdaptSecondary: 1,
		AuditPath: auditPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	m.uplink.addr = central.Addr

	// Pending requests above the primary threshold while events flow,
	// so a checkpoint round engages adaptation (as in
	// TestCentralWithAdaptation).
	for i := 0; i < 3000; i++ {
		m.Mirror.Main().Request(&core.InitRequest{})
	}
	src, err := echo.DialSend(central.Addr, chanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const total = 200
	for i := uint64(1); i <= total; i++ {
		src.Submit(event.NewPosition(event.FlightID(1+i%4), i, float64(i), 0, 9000, 128))
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		e, _ := central.Controller.Transitions()
		if central.Central.Main().Processed() >= total && e > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := http.Get("http://" + m.HTTPAddr + "/init"); err != nil {
		t.Fatal(err)
	}

	centralText := scrapeMetrics(t, central.HTTPAddr)
	for _, want := range []string{
		`central_received_total{site="central"} 200`,
		`link_sent_total{mirror="0"}`,
		`checkpoint_rounds_total{site="central"}`,
		`pipeline_stage_seconds_count{stage="ready_wait"}`,
		`pipeline_stage_seconds_count{stage="link_send"}`,
		`adapt_engages_total`,
		`adapt_engaged 1`,
		`http_requests_total`,
	} {
		if !strings.Contains(centralText, want) {
			t.Errorf("central /metrics missing %q", want)
		}
	}
	mirrorText := scrapeMetrics(t, m.HTTPAddr)
	for _, want := range []string{
		`mirror_received_total{site="mirror0"}`,
		`queue_ready_depth{site="mirror0"}`,
		`requests_served_total{site="mirror0"}`,
		`snapshot_cache_hits_total{site="mirror0"}`,
		`pipeline_stage_seconds_count{stage="mirror_apply"}`,
		`http_requests_total 1`,
	} {
		if !strings.Contains(mirrorText, want) {
			t.Errorf("mirror /metrics missing %q", want)
		}
	}

	// The durable audit trail recorded the engage with the sample that
	// triggered it.
	central.Close()
	entries, err := obs.ReadAuditLog(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no audit entries on disk after an engaged run")
	}
	if entries[0].Action != "engage" {
		t.Fatalf("first audit action = %q, want engage", entries[0].Action)
	}
	if entries[0].Value < entries[0].Primary {
		t.Fatalf("engage value %d below primary %d", entries[0].Value, entries[0].Primary)
	}
}

// TestMirrorRestartConvergesRegime is the deployed-site version of the
// chaos suite's regime-convergence invariant: engage adaptation, crash
// the mirror process, let the failure detector exclude it, restart it
// on the same address, re-admit it through recovery, and assert the
// fresh incarnation — whose applier watermark restarted from zero —
// reports the central's current adapt_regime_id, both through the
// applier API and on its /metrics endpoint.
func TestMirrorRestartConvergesRegime(t *testing.T) {
	m, err := startMirror(mirrorOptions{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "pending"})
	if err != nil {
		t.Fatal(err)
	}
	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors:   []string{m.Addr},
		ChkptFreq: 10,
		Adapt:     true, AdaptPrimary: 1, AdaptSecondary: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	m.uplink.addr = central.Addr
	// Pin the degraded regime once engaged so the crash/restart below
	// races against a stable target, not a reverting controller.
	central.Controller.SetRevertAfter(1 << 30)

	// Engage exactly as TestCentralWithAdaptation does: deep pending
	// buffer on the mirror while events drive checkpoint rounds.
	for i := 0; i < 3000; i++ {
		m.Mirror.Main().Request(&core.InitRequest{})
	}
	src, err := echo.DialSend(central.Addr, chanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	seq := uint64(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			src.Submit(event.NewPosition(event.FlightID(1+seq%4), seq, float64(seq), 0, 9000, 64))
		}
	}
	feed(200)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e, _ := central.Controller.Transitions(); e > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	want := central.Controller.Current()
	if e, _ := central.Controller.Transitions(); e == 0 {
		t.Fatal("adaptation never engaged; cannot exercise regime convergence")
	}

	// Crash the mirror and let the failure detector exclude it: keep the
	// backup queue non-empty and initiate rounds the dead site cannot
	// answer.
	member := core.NewMembership(central.Central, core.MembershipConfig{MissedRounds: 2})
	addr := m.Addr
	m.Close()
	feed(100)
	deadline = time.Now().Add(10 * time.Second)
	for len(member.Failed()) == 0 && time.Now().Before(deadline) {
		central.Central.Checkpoint()
		time.Sleep(5 * time.Millisecond)
	}
	if len(member.Failed()) == 0 {
		t.Fatal("failure detector never excluded the crashed mirror")
	}

	// Restart on the same listen address (the OS may hold the port
	// briefly) — a brand-new process image: empty state, applier
	// watermark back at zero.
	var m2 *mirrorSite
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m2, err = startMirror(mirrorOptions{Listen: addr, HTTP: "127.0.0.1:0", Central: central.Addr}); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m2 == nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer m2.Close()

	// Re-admit through recovery. The central's data link still holds the
	// connection the crash killed; the reconnecting dialer replaces it
	// on the next attempt, so retry until the transfer lands.
	var rerr error
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, rerr = member.Rejoin(0); rerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rerr != nil {
		t.Fatalf("rejoin after restart: %v", rerr)
	}

	// The recovery block carried the current directive; the standalone
	// broadcast covers a regime decided after the snapshot was built.
	deadline = time.Now().Add(10 * time.Second)
	converged := false
	for time.Now().Before(deadline) {
		if reg, _, have := m2.Applier.Current(); have && reg.ID == want.ID {
			converged = true
			break
		}
		central.Central.PublishDirective()
		time.Sleep(5 * time.Millisecond)
	}
	if !converged {
		reg, round, have := m2.Applier.Current()
		t.Fatalf("restarted mirror regime = %d (round %d, have %v), want central's %d",
			reg.ID, round, have, want.ID)
	}

	// The satellite's literal claim: the restarted site exports the
	// central's regime as its adapt_regime_id gauge.
	text := scrapeMetrics(t, m2.HTTPAddr)
	wantSeries := fmt.Sprintf(`adapt_regime_id{site="mirror0"} %d`, want.ID)
	if !strings.Contains(text, wantSeries) {
		t.Fatalf("restarted mirror /metrics missing %q", wantSeries)
	}
}
