package status_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/site"
	"adaptmirror/internal/status"
)

var update = flag.Bool("update", false, "rewrite testdata/documents.json from the current output")

// closedLinks returns n mirror links that fail fast, enough for a
// central that ships nothing.
func closedLinks(n int) []core.MirrorLink {
	links := make([]core.MirrorLink, n)
	for i := range links {
		l := site.NewLink("", site.ChanData, site.LinkOptions{})
		l.Close()
		links[i] = core.MirrorLink{Data: l, Ctrl: l}
	}
	return links
}

// TestDocumentGolden pins the /cluster/status documents of an idle
// cluster: a mirror, a central with an adaptation controller, and a
// standby promoted by its takeover node, whose takeover block comes from
// the node's Info.
func TestDocumentGolden(t *testing.T) {
	mirror := site.NewMirror(core.MirrorSiteConfig{SiteID: 1})
	defer mirror.Site.Close()

	central := core.NewCentral(core.CentralConfig{Streams: 1, Mirrors: closedLinks(2)})
	defer central.Close()
	ctrl := adapt.NewController(
		adapt.Regime{ID: 1, Name: "baseline", CheckpointFreq: 50},
		adapt.Regime{ID: 2, Name: "degraded", CheckpointFreq: 100}, nil)

	standby := site.NewMirror(core.MirrorSiteConfig{SiteID: 0, Standby: true})
	defer standby.Site.Close()
	// One degraded-regime directive reached both mirrors in round 5, and
	// the central's controller holds a sample from mirror 1.
	directive := adapt.EncodeRegime(adapt.Regime{ID: 2, FieldDeltas: true, CheckpointFreq: 100})
	mirror.Applier.Apply(5, directive)
	standby.Applier.Apply(5, directive)
	ctrl.ObserveSite(1, core.Sample{Ready: 3, Backup: 40, Pending: 2, WireBytes: 512, Outbox: 1, ApplyLag: 7})
	node := core.Takeover{Site: 0, Peers: 2, Standby: true, Budget: 2}
	var epoch uint64
	for i := 0; i < 4 && epoch == 0; i++ {
		if e := node.Step(core.TakeoverInput{Kind: core.TakeoverTick, LastRound: 9}); len(e) == 1 && e[0].Kind == core.TakeoverProbe {
			standby.Takeover.Fired.Add(1)
			epoch = node.Step(core.TakeoverInput{Kind: core.TakeoverProbed, LastRound: 9})[0].Epoch
		}
	}
	p := standby.Promote(epoch, core.CentralConfig{Mirrors: closedLinks(2)}, core.MembershipConfig{})
	defer p.Central.Close()

	promoted := status.Central(status.CentralSources{Site: standby.Name, Central: p.Central})
	promoted.Takeover = status.FromTakeover(node.Info(), standby.Takeover, "127.0.0.1:7001")
	docs := map[string]status.Document{
		"mirror":   status.Mirror(mirror.Name, mirror.Site, mirror.Applier),
		"central":  status.Central(status.CentralSources{Central: central, Controller: ctrl}),
		"promoted": promoted,
	}
	for name, d := range docs {
		d.At = time.Time{}
		docs[name] = d
	}
	got, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "documents.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("status documents differ from %s (go test -run TestDocumentGolden -update rewrites it):\n%s", path, got)
	}
}
