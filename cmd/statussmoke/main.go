// Command statussmoke is the /cluster/status conformance gate: it
// boots a 2-mirror cluster with a real adaptation controller, runs a
// small workload, serves the central front over real HTTP, fetches
// /cluster/status like an operations dashboard would, and asserts the
// document is well-formed — central role, one live link row per mirror
// with moving counters, checkpoint progress, and per-site rows. It exits
// non-zero on any violation (`make status-smoke`, part of `make ci`).
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/cluster"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/status"
)

func run() error {
	model := costmodel.Model{
		EventBase:     2 * time.Microsecond,
		SerializeBase: 500 * time.Nanosecond,
		SubmitBase:    200 * time.Nanosecond,
		RequestBase:   5 * time.Microsecond,
	}
	fn1 := adapt.Regime{ID: 1, Name: "coalesce-10", Coalesce: true, MaxCoalesce: 10, CheckpointFreq: 50}
	fn2 := adapt.Regime{ID: 2, Name: "overwrite-20", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
	controller := adapt.NewController(fn1, fn2, nil)
	controller.SetMonitorValues(adapt.VarWireBytes, 1<<30, 0)
	cl, err := cluster.New(cluster.Config{
		Mirrors: 2,
		Model:   model,
		Params:  core.Params{CheckpointFreq: 50},
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.AttachController(controller)

	events := cluster.BuildEvents(cluster.Options{
		Flights: 10, UpdatesPerFlight: 30, EventSize: 128, Seed: 1,
	})
	if err := cl.Feed(events); err != nil {
		return err
	}
	cl.DrainAll()

	front := httpfront.NewWithRegistry(cl.Central.Main(), cl.Obs)
	defer front.Close()
	front.SetStatus(cl.CentralStatus)
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	resp, err := http.Get("http://" + addr + "/cluster/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/cluster/status returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		return fmt.Errorf("/cluster/status Content-Type = %q, want application/json", ct)
	}
	var doc status.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("decoding status document: %w", err)
	}

	// Well-formedness assertions.
	if doc.Site != "central" || doc.Role != "central" {
		return fmt.Errorf("document identifies as site=%q role=%q, want central/central", doc.Site, doc.Role)
	}
	if len(doc.Links) != 2 {
		return fmt.Errorf("document has %d link rows, want 2", len(doc.Links))
	}
	for i, l := range doc.Links {
		if l.Mirror != i {
			return fmt.Errorf("link row %d labeled mirror %d", i, l.Mirror)
		}
		if !l.Live {
			return fmt.Errorf("link %d reports its mirror not live", i)
		}
		if l.Sent == 0 || l.SentBytes == 0 {
			return fmt.Errorf("link %d shows no traffic (sent=%d bytes=%d)", i, l.Sent, l.SentBytes)
		}
		if l.BytesPerRound <= 0 {
			return fmt.Errorf("link %d wire telemetry never ticked (bytes/round=%v)", i, l.BytesPerRound)
		}
	}
	if doc.Checkpoint == nil || doc.Checkpoint.Commits == 0 {
		return fmt.Errorf("document shows no checkpoint progress: %+v", doc.Checkpoint)
	}
	if len(doc.Checkpoint.Cut) == 0 {
		return fmt.Errorf("document carries no committed cut")
	}
	if doc.Regime.ID != fn1.ID {
		return fmt.Errorf("central regime ID = %d, want baseline %d", doc.Regime.ID, fn1.ID)
	}
	if len(doc.Sites) < 3 {
		return fmt.Errorf("document has %d site rows, want central + 2 mirrors", len(doc.Sites))
	}
	for _, s := range doc.Sites {
		if s.Site != "central" && s.RegimeID != fn1.ID {
			return fmt.Errorf("site %s reports regime %d, want %d", s.Site, s.RegimeID, fn1.ID)
		}
	}
	if doc.Rejoin == nil {
		return fmt.Errorf("document omits rejoin accounting")
	}
	if doc.CentralEpoch != 0 {
		return fmt.Errorf("original central reports promotion epoch %d, want 0", doc.CentralEpoch)
	}

	// Mirror documents must be well-formed too.
	for i := range cl.Mirrors {
		md := cl.MirrorStatus(i)
		if md.Role != "mirror" || md.Site != fmt.Sprintf("mirror%d", i) {
			return fmt.Errorf("mirror %d document identifies as site=%q role=%q", i, md.Site, md.Role)
		}
		if md.Regime.ID != fn1.ID || md.Regime.DirectiveRound == 0 {
			return fmt.Errorf("mirror %d never installed a directive: %+v", i, md.Regime)
		}
		if md.CentralEpoch != doc.CentralEpoch {
			return fmt.Errorf("mirror %d derives epoch %d from its round watermark, central reports %d",
				i, md.CentralEpoch, doc.CentralEpoch)
		}
	}
	fmt.Printf("statussmoke: ok (%d links, %d sites, %d commits, %d audit entries)\n",
		len(doc.Links), len(doc.Sites), doc.Checkpoint.Commits, len(doc.Audit))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "statussmoke: %v\n", err)
		os.Exit(1)
	}
}
