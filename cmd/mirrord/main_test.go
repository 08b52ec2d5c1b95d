package main

import (
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/oislog"
	"adaptmirror/internal/site"
	"adaptmirror/internal/thinclient"
)

// These tests start sites from mirrord command lines: what they check
// is the flag-to-option mapping. The site runtime itself is tested in
// internal/site.

func startArgs(t *testing.T, args ...string) *deployment {
	t.Helper()
	d, err := start(append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-role", "bogus"},
		{"-role", "mirror"},
		{"-role", "mirror", "-central", "x", "-site", "256"},
	} {
		var usage usageError
		if _, err := start(args); !errors.As(err, &usage) || usage == "" {
			t.Errorf("start(%q) = %v, want a usage error", args, err)
		}
	}
}

func TestStartMirrorBadListen(t *testing.T) {
	var usage usageError
	_, err := start([]string{"-role", "mirror", "-listen", "256.0.0.1:bad", "-http", "127.0.0.1:0", "-central", "x"})
	if err == nil || errors.As(err, &usage) {
		t.Fatalf("bad listen address: err = %v, want a startup failure", err)
	}
}

// TestStartCentralBadMirror: a mirror that is not up does not keep the
// central from starting — it takes ingest and reports the slot not live
// until that mirror asks to be admitted — but a -mirrors entry that is
// no host:port is still a startup error.
func TestStartCentralBadMirror(t *testing.T) {
	d := startArgs(t, "-role", "central", "-mirrors", "127.0.0.1:1")
	src, err := echo.DialSend(d.central.Addr, site.ChanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Submit(event.NewPosition(1, 1, 0, 0, 0, 64))
	waitUntil(t, "the central to process the event", func() bool { return d.central.Central.Main().Processed() == 1 })
	if links := d.central.Status().Links; len(links) != 1 || links[0].Live {
		t.Fatalf("links = %+v, want the unreachable mirror's slot not live", links)
	}

	var usage usageError
	_, err = start([]string{"-role", "central", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-mirrors", "127.0.0.1"})
	if err == nil || errors.As(err, &usage) {
		t.Fatalf("malformed mirror address: err = %v, want a startup failure", err)
	}
}

func TestCentralWithAdaptation(t *testing.T) {
	m := startArgs(t, "-role", "mirror", "-central", "pending").mirror
	central := startArgs(t, "-role", "central", "-mirrors", m.Addr, "-chkpt", "10",
		"-adapt", "-adapt-primary", "1", "-adapt-secondary", "1").central
	m.Follow(central.Addr)
	waitUntil(t, "the mirror's admission", func() bool { return central.Central.Membership().Live() == 1 })

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
		m.Site.Main().Request(&core.InitRequest{})
	}
	src, err := echo.DialSend(central.Addr, site.ChanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := uint64(1); i <= 200; i++ {
		src.Submit(event.NewPosition(1, i, 0, 0, 0, 64))
	}
	waitUntil(t, "adaptation to engage in the deployed central", func() bool {
		e, _ := central.Controller.Transitions()
		return e > 0
	})
}

func TestCentralWithOperationsLog(t *testing.T) {
	dir := t.TempDir()
	d := startArgs(t, "-role", "central", "-log", dir)
	src, err := echo.DialSend(d.central.Addr, site.ChanIngress)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := uint64(1); i <= n; i++ {
		src.Submit(event.NewPosition(1, i, float64(i), 0, 9000, 64))
	}
	waitUntil(t, "the central to process the stream", func() bool {
		return d.central.Central.Main().Processed() >= n
	})
	src.Close()
	d.Close()

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
	m := startArgs(t, "-role", "mirror", "-central", "pending", "-padding", "64").mirror
	central := startArgs(t, "-role", "central", "-mirrors", m.Addr, "-selective", "10").central
	m.Follow(central.Addr)

	view := thinclient.New(64)
	updatesLink, err := echo.DialRecv(central.Addr, site.ChanUpdates)
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
	updatesCh, err := central.Bus.Lookup(site.ChanUpdates)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the updates subscription to attach", func() bool { return updatesCh.Subscribers() >= 1 })

	src, err := echo.DialSend(central.Addr, site.ChanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := uint64(1); i <= 60; i++ {
		src.Submit(event.NewPosition(event.FlightID(1+i%3), i, float64(i), 0, 9000, 128))
	}
	waitUntil(t, "the client to apply every update", func() bool {
		applied, _ := view.Stats()
		return applied >= 60
	})
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
