package site_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/site"
	"adaptmirror/internal/status"
)

// These tests run the TCP runtime the way cmd/mirrord configures it: a
// cost model, one registry and one virtual CPU per site, real loopback
// listeners.

// model makes requests expensive enough (the virtual CPU serves ~30 per
// millisecond) that a few thousand keep a site's pending buffer deep
// across several checkpoint rounds.
var model = costmodel.Model{
	EventBase:      40 * time.Microsecond,
	RequestBase:    33 * time.Microsecond,
	CheckpointBase: 100 * time.Microsecond,
	ControlCost:    5 * time.Microsecond,
}

func mainConfig() core.MainConfig {
	return core.MainConfig{EDE: ede.Config{Model: model}}
}

// mirrorOptions is a mirror site with an HTTP front whose central is
// not known yet (mirrors start first; tests Repoint the uplink).
func mirrorOptions(siteID int) site.MirrorOptions {
	reg := obs.NewRegistry()
	return site.MirrorOptions{
		Config: core.MirrorSiteConfig{
			Main:   mainConfig(),
			Model:  model,
			CPU:    &costmodel.CPU{},
			SiteID: uint8(siteID),
			Obs:    reg,
			Tracer: obs.NewTracer(reg),
		},
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Central: "pending",
	}
}

func centralOptions(chkptFreq int, mirrors ...string) site.CentralOptions {
	reg := obs.NewRegistry()
	return site.CentralOptions{
		Config: core.CentralConfig{
			Streams: 2,
			Params:  core.Params{CheckpointFreq: chkptFreq},
			Model:   model,
			CPU:     &costmodel.CPU{},
			Main:    mainConfig(),
			Obs:     reg,
			Tracer:  obs.NewTracer(reg),
		},
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Mirrors: mirrors,
	}
}

func startMirror(t *testing.T, opts site.MirrorOptions) *site.MirrorSite {
	t.Helper()
	m, err := site.StartMirror(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// startCentral starts a central site and points the given mirrors'
// uplinks at it.
func startCentral(t *testing.T, opts site.CentralOptions, mirrors ...*site.MirrorSite) *site.CentralSite {
	t.Helper()
	c, err := site.StartCentral(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, m := range mirrors {
		m.Uplink.Repoint(c.Addr)
	}
	return c
}

// feed streams count position events into addr's ingress channel,
// starting at seq, like oisgen.
func feed(t *testing.T, addr string, seq, count uint64) {
	t.Helper()
	src, err := echo.DialSend(addr, site.ChanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := seq; i < seq+count; i++ {
		e := event.NewPosition(event.FlightID(1+i%4), i, float64(i), -float64(i), 9000, 128)
		if err := src.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
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

func clusterStatus(t *testing.T, httpAddr string) status.Document {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc status.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestFullDeployment brings up a 1-central + 2-mirror deployment over
// real loopback TCP, streams events through the ingress channel like
// oisgen would, serves client requests over HTTP like loadgen would,
// and verifies replication.
func TestFullDeployment(t *testing.T) {
	// Mirrors first (the documented startup order).
	m1 := startMirror(t, mirrorOptions(0))
	m2 := startMirror(t, mirrorOptions(1))
	opts := centralOptions(20, m1.Addr, m2.Addr)
	opts.Selective = 10
	central := startCentral(t, opts, m1, m2)

	const total = 200
	feed(t, central.Addr, 1, total)

	// Wait for the pipeline to replicate (selective: 1 in 10 events
	// per flight is mirrored).
	waitUntil(t, "the central to process the stream", func() bool {
		return central.Central.Main().Processed() >= total
	})
	wantMirrored := central.Central.Stats().Mirrored
	if wantMirrored == 0 || wantMirrored >= total {
		t.Fatalf("Mirrored = %d, want selective reduction", wantMirrored)
	}
	for _, m := range []*site.MirrorSite{m1, m2} {
		m := m
		waitUntil(t, "a mirror to receive the mirrored events", func() bool {
			return m.Site.Received() >= wantMirrored
		})
		if got := m.Site.Received(); got != wantMirrored {
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
	waitUntil(t, "a checkpoint commit over the deployed control channels", func() bool {
		return central.Central.Stats().ChkptCommits > 0
	})
}

// TestHealthyMirrorsSurviveSaturatingFeed: the default failure detector
// (8 missed rounds) never excludes a healthy mirror while a closed-loop
// feed saturates the central over the runtime's TCP links. The loop is
// closed on checkpoint progress — at most window events past the last
// commit — so however long a healthy mirror's reply is held up (a host
// stall, a descheduled connection goroutine), the central forwards at
// most window events, window/freq triggers, past that mirror's last
// reply. Commit pacing turns those into at most window/(freq·9) started
// rounds, under the budget; were every trigger to start a round, the
// same stall would exclude the mirror.
func TestHealthyMirrorsSurviveSaturatingFeed(t *testing.T) {
	// The zero cost model: the host CPU, not the ledger, is the limit.
	zero := costmodel.Model{}
	mirror := func(i int) *site.MirrorSite {
		opts := mirrorOptions(i)
		opts.Config.Model, opts.Config.Main.EDE.Model = zero, zero
		return startMirror(t, opts)
	}
	m1, m2 := mirror(0), mirror(1)
	opts := centralOptions(core.DefaultCheckpointFreq, m1.Addr, m2.Addr)
	opts.Config.Model, opts.Config.Main.EDE.Model = zero, zero
	central := startCentral(t, opts, m1, m2)
	member := core.NewMembership(central.Central, core.MembershipConfig{})

	src, err := echo.DialSend(central.Addr, site.ChanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const total, window = 40000, 2048
	committed := func() uint64 { n, _ := central.Central.Backup().Trimmed(); return n }
	// A central that forwards nothing starts no round by itself, and a
	// commit covers only what every site had applied, so a feed waiting
	// on commits nudges with an explicit round — a new one only after the
	// last has committed, which took a reply from every mirror. Nudges
	// therefore add at most one missed round per stall.
	nudged := uint64(0)
	deadline := time.Now().Add(30 * time.Second)
	for seq := uint64(1); seq <= total; seq++ {
		for waited := 1; committed()+window < seq; waited++ {
			if time.Now().After(deadline) {
				t.Fatalf("commits stalled at %d of %d events (central %+v, failed %v)",
					committed(), seq, central.Central.Stats(), member.Failed())
			}
			if commits := central.Central.Stats().ChkptCommits; waited%40 == 0 && commits >= nudged {
				central.Central.Checkpoint()
				nudged = commits + 1
			}
			time.Sleep(50 * time.Microsecond)
		}
		if err := src.Submit(event.NewPosition(event.FlightID(1+seq%64), seq, 1, 2, 3, 64)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the mirrors to receive the stream", func() bool {
		return min(m1.Site.Received(), m2.Site.Received()) >= total
	})
	if failed := member.Failed(); len(failed) != 0 {
		t.Fatalf("healthy mirrors %v excluded", failed)
	}
}

// TestWireRejoinAfterMirrorCrash: the central StartCentral ships runs
// the wire failure detector and serves RECOVERY_REQ. A crashed mirror
// is excluded within the budget, so commits resume and the backup
// trims; restarted on its address with its state lost, it asks to
// rejoin over its uplink and converges byte-exact.
func TestWireRejoinAfterMirrorCrash(t *testing.T) {
	m0, m1 := startMirror(t, mirrorOptions(0)), startMirror(t, mirrorOptions(1))
	central := startCentral(t, centralOptions(1<<30, m0.Addr, m1.Addr), m0, m1)
	c := central.Central
	member := c.Membership()
	if member == nil {
		t.Fatal("the wire central runs no failure detector")
	}
	feed(t, central.Addr, 1, 100)
	waitUntil(t, "replication to both mirrors", func() bool {
		return m0.Site.Received() == 100 && m1.Site.Received() == 100
	})

	// Crash mirror 1 under traffic, then run rounds it cannot answer
	// while the backup holds the new events.
	addr := m1.Addr
	m1.Close()
	feed(t, central.Addr, 101, 100)
	waitUntil(t, "the central to back up the new events", func() bool {
		return c.Main().Processed() == 200 && c.Backup().Len() > 0
	})
	commits, rounds := c.Stats().ChkptCommits, 0
	for ; member.Alive(1) && rounds <= site.WireMissBudget; rounds++ {
		c.Checkpoint()
		time.Sleep(time.Millisecond)
	}
	if member.Alive(1) || !member.Alive(0) {
		t.Fatalf("after %d rounds: failed %v, want exactly mirror 1 excluded", rounds, member.Failed())
	}
	waitUntil(t, "commits to resume and trim the backup", func() bool {
		c.Checkpoint()
		return c.Stats().ChkptCommits > commits && c.Backup().Len() == 0
	})

	// Restart on the same address with empty state and ask to rejoin
	// from no cut. The central's data link may still hold the
	// connection the crash killed, which fails the first transfer, so
	// the request is repeated until the site is re-admitted.
	feed(t, central.Addr, 201, 100)
	opts := mirrorOptions(1)
	opts.Listen, opts.Central = addr, central.Addr
	var m1b *site.MirrorSite
	waitUntil(t, "the restart on "+addr, func() bool {
		var err error
		m1b, err = site.StartMirror(opts)
		return err == nil
	})
	t.Cleanup(func() { m1b.Close() })
	waitUntil(t, "mirror 1 to be re-admitted", func() bool {
		if err := m1b.Uplink.Submit(&event.Event{Type: event.TypeRecoveryRequest, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		return member.Alive(1)
	})

	feed(t, central.Addr, 301, 100)
	waitUntil(t, "byte-exact convergence and an empty backup", func() bool {
		c.Checkpoint()
		want := c.Main().Engine().State().Snapshot()
		got := m1b.Site.Main().Engine().State().Snapshot()
		return c.Main().Processed() == 400 && bytes.Equal(want, got) && c.Backup().Len() == 0
	})
	if live := member.Live(); live != 2 {
		t.Fatalf("Live = %d after the rejoin, want 2", live)
	}
}

// adaptiveCentral starts a central that engages adaptation as soon as
// one pending request is observed, plus the mirror it adapts for.
func adaptiveCentral(t *testing.T, auditPath string) (*site.CentralSite, *site.MirrorSite) {
	t.Helper()
	m := startMirror(t, mirrorOptions(0))
	opts := centralOptions(10, m.Addr)
	opts.Adapt, opts.AdaptPrimary, opts.AdaptSecondary = true, 1, 1
	opts.AuditPath = auditPath
	return startCentral(t, opts, m), m
}

// engage saturates the mirror's request buffer while events flow so a
// checkpoint round observes pending > primary and engages. The buffer
// must stay deep for tens of milliseconds (the virtual CPU drains ~30
// requests/ms), so pile up thousands.
func engage(t *testing.T, central *site.CentralSite, m *site.MirrorSite, events uint64) {
	t.Helper()
	for i := 0; i < 3000; i++ {
		m.Site.Main().Request(&core.InitRequest{})
	}
	feed(t, central.Addr, 1, events)
	waitUntil(t, "adaptation to engage", func() bool {
		e, _ := central.Controller.Transitions()
		return e > 0 && central.Central.Main().Processed() >= events
	})
}

// TestDeployedMetricsEndpoints brings up a real 1+1 deployment, runs
// traffic, and scrapes /metrics on both sites: the central exposition
// must cover ingest, fan-out, checkpointing, and the lifecycle stages;
// the mirror's must cover its receive path and serving counters. With
// adaptation on and an audit path, the transition trail lands on disk.
func TestDeployedMetricsEndpoints(t *testing.T) {
	auditPath := t.TempDir() + "/audit.jsonl"
	central, m := adaptiveCentral(t, auditPath)
	if got := central.Central.GetParams().CheckpointFreq; got != 50 {
		t.Fatalf("baseline regime not applied: chkpt freq = %d, want 50", got)
	}
	engage(t, central, m, 200)
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
		`slab_pool_hit_total`,
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
		`http_requests_total{site="mirror0"} 1`,
		`takeover_fired_total{site="mirror0"} 0`,
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
// the mirror, let the failure detector exclude it, restart it on the
// same address, re-admit it over the central's same reconnecting links
// through Membership.Rejoin, and assert the fresh incarnation — whose
// applier watermark restarted from zero — reports the central's current
// adapt_regime_id, both through the applier API and on /metrics.
func TestMirrorRestartConvergesRegime(t *testing.T) {
	central, m := adaptiveCentral(t, "")
	// Pin the degraded regime once engaged so the crash/restart below
	// races against a stable target, not a reverting controller.
	central.Controller.SetRevertAfter(1 << 30)
	engage(t, central, m, 200)
	want := central.Controller.Current()

	// Crash the mirror and let the failure detector exclude it: keep the
	// backup queue non-empty and initiate rounds the dead site cannot
	// answer.
	member := core.NewMembership(central.Central, core.MembershipConfig{MissedRounds: 2})
	addr := m.Addr
	m.Close()
	feed(t, central.Addr, 201, 100)
	waitUntil(t, "the failure detector to exclude the crashed mirror", func() bool {
		central.Central.Checkpoint()
		time.Sleep(3 * time.Millisecond)
		return len(member.Failed()) > 0
	})

	// Restart on the same listen address (the OS may hold the port
	// briefly) — a brand-new process image: empty state, applier
	// watermark back at zero.
	opts := mirrorOptions(0)
	opts.Listen, opts.Central = addr, central.Addr
	var m2 *site.MirrorSite
	waitUntil(t, "the restart on "+addr, func() bool {
		var err error
		m2, err = site.StartMirror(opts)
		return err == nil
	})
	defer m2.Close()

	// Re-admit through recovery. The central's data link still holds the
	// connection the crash killed; the link replaces it on the next
	// attempt, so retry until the transfer lands.
	waitUntil(t, "the rejoin after restart", func() bool {
		_, err := member.Rejoin(0)
		return err == nil
	})

	// The recovery block carried the current directive; the standalone
	// broadcast covers a regime decided after the snapshot was built.
	waitUntil(t, fmt.Sprintf("the restarted mirror to install regime %d", want.ID), func() bool {
		central.Central.PublishDirective()
		reg, _, have := m2.Applier.Current()
		return have && reg.ID == want.ID
	})
	text := scrapeMetrics(t, m2.HTTPAddr)
	wantSeries := fmt.Sprintf(`adapt_regime_id{site="mirror0"} %d`, want.ID)
	if !strings.Contains(text, wantSeries) {
		t.Fatalf("restarted mirror /metrics missing %q", wantSeries)
	}
}
