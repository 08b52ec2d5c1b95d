package cluster

import (
	"hash/fnv"
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/faultinject"
	"adaptmirror/internal/site"
	"adaptmirror/internal/vclock"
)

// adopted is what the shared adoption step (site.Mirror.Promote) leaves
// behind, as far as the rest of the cluster can tell.
type adopted struct {
	Epoch, RoundFloor uint64
	LastProcessed     string
	StateDigest       uint64
}

func adoptedFrom(p *site.Promoted) adopted {
	h := fnv.New64a()
	_, _ = h.Write(p.Central.Main().Engine().State().Snapshot())
	return adopted{
		Epoch:         p.Central.Epoch(),
		RoundFloor:    p.RoundFloor,
		LastProcessed: p.Central.Main().LastProcessed().String(),
		StateDigest:   h.Sum64(),
	}
}

// TestPromotionEquivalence feeds one seed's pre-crash stream, with a
// checkpoint round at the same stream positions, to the chaos rig and
// to a TCP cluster of site runtimes, kills the central in each, and
// compares what the one adoption step produced: the rig calls it from
// its driver, the TCP standby from its takeover runtime after detecting
// the death over the wire. Control faults are off on the rig side (the
// wire side injects none). The round floor is each side's own: the TCP
// central heartbeats between the driver's rounds, so its standby can
// observe more rounds than the rig's, and each side's floor must equal
// the round its standby last observed.
func TestPromotionEquivalence(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, CentralCrash: true}
	cfg.defaults()
	sched := chaosSchedule(cfg)
	sched.CtrlFaults = faultinject.Faults{}
	events := BuildEvents(Options{
		Flights: cfg.Flights, UpdatesPerFlight: cfg.UpdatesPerFlight, EventSize: cfg.EventSize, Seed: cfg.Seed,
	})
	pre := events[:int(sched.CrashAfterFrac*float64(len(events)))]

	// feed ingests the pre-crash stream the way RunChaos does: a round
	// after every CheckpointEvery events, once the pipeline caught up.
	feed := func(ingest func(*event.Event) error, round func(fed uint64)) {
		for i, e := range pre {
			if err := ingest(e); err != nil {
				t.Fatal(err)
			}
			if (i+1)%cfg.CheckpointEvery == 0 {
				round(uint64(i + 1))
			}
		}
	}

	// In process: the chaos rig.
	r := newChaosRig(cfg, sched)
	defer func() {
		for i := range r.mirrors {
			r.mirror(i).Close()
		}
		r.cen().Close()
	}()
	feed(r.cen().Ingest, func(fed uint64) {
		r.waitMirrored(fed)
		r.round("round")
	})
	p := r.promoteCentral(uint64(len(pre)))
	if p == nil || len(r.violations) > 0 {
		t.Fatalf("rig promotion failed: %v", r.violations)
	}
	want := adoptedFrom(p)
	if observed := r.mirror(0).LastRound(); want.RoundFloor != observed {
		t.Fatalf("rig round floor %d, want the standby's last observed round %d", want.RoundFloor, observed)
	}

	// Over TCP: site 0 is the armed standby; the others only replicate.
	mirrorCfg := func(i int) core.MirrorSiteConfig {
		return core.MirrorSiteConfig{Model: chaosModel, CPU: &costmodel.CPU{}, SiteID: uint8(i), Standby: true}
	}
	sites := make([]*site.MirrorSite, cfg.Mirrors)
	addrs := make([]string, cfg.Mirrors)
	for i := cfg.Mirrors - 1; i >= 0; i-- {
		opts := site.MirrorOptions{Config: mirrorCfg(i), Listen: "127.0.0.1:0"}
		if i == 0 {
			opts.Peers = append([]string{"self"}, addrs[1:]...)
			opts.TakeoverBudget = cfg.MissedRounds
			opts.TakeoverInterval = 20 * time.Millisecond
		}
		m, err := site.StartMirror(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		sites[i], addrs[i] = m, m.Addr
	}
	central, err := site.StartCentral(site.CentralOptions{
		Config: core.CentralConfig{
			Streams: 1,
			Params:  core.Params{MaxCoalesce: 1, CheckpointFreq: 1 << 30}, // rounds by hand, as in the rig
			Model:   chaosModel,
			CPU:     &costmodel.CPU{},
		},
		Listen:  "127.0.0.1:0",
		Mirrors: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	for _, m := range sites {
		m.Follow(central.Addr)
	}
	// Each mirror is admitted by a one-event transfer of the empty state.
	caughtUp := func(fed uint64) {
		waitUntil(t, "every mirror to receive the stream so far", func() bool {
			for _, m := range sites {
				if m.Site.Received() < 1+fed {
					return false
				}
			}
			return central.Central.Membership().Live() == len(sites)
		})
	}
	caughtUp(0)
	feed(central.Central.Ingest, func(fed uint64) {
		caughtUp(fed)
		central.Central.Checkpoint()
		// Rounds are numbered from 1 with no directive rounds between,
		// so the count is the number of the round just started.
		round := central.Central.Stats().ChkptRounds
		waitUntil(t, "the standby to observe the round", func() bool { return sites[0].Site.LastRound() >= round })
	})
	caughtUp(uint64(len(pre)))
	if central.Central.CommittedCut() == nil {
		t.Fatal("no cut committed before the crash; the rig would have forced extra rounds")
	}
	central.Close()
	waitUntil(t, "the standby to take over", func() bool { return sites[0].Promoted() != nil })

	got := adoptedFrom(sites[0].Promoted())
	if observed := sites[0].Site.LastRound(); got.RoundFloor != observed {
		t.Fatalf("TCP round floor %d, want the standby's last observed round %d", got.RoundFloor, observed)
	}
	got.RoundFloor = want.RoundFloor
	if got != want {
		t.Fatalf("adoption differs by driver:\n  chaos rig   %+v\n  TCP standby %+v", want, got)
	}
	if want.Epoch != 1 || want.LastProcessed != (vclock.VC{uint64(len(pre))}).String() {
		t.Fatalf("adopted %+v, want epoch 1, progress <%d>", want, len(pre))
	}
}
