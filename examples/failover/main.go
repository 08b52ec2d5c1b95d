// Failover: mirror-site failure detection and recovery — the paper's
// future-work extension. A mirror goes silent mid-stream; the
// membership detector excludes it so checkpoint commits keep trimming
// backup queues; the site later rejoins through a state-snapshot +
// backup-replay transfer and resumes serving clients.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/event"
)

// cuttableLink drops traffic when severed. A control link sets ctrl, a
// data link sets data.
type cuttableLink struct {
	dead atomic.Bool
	ctrl func(*event.Event)
	data func([]*event.Event, event.Ref) error
}

func (l *cuttableLink) Submit(e *event.Event) error {
	if l.dead.Load() {
		return core.ErrUnitClosed
	}
	l.ctrl(e)
	return nil
}

func (l *cuttableLink) SubmitOwned(es []*event.Event, ref event.Ref) error {
	if l.dead.Load() {
		return core.ErrUnitClosed
	}
	return l.data(es, ref)
}

func main() {
	// Assemble one central + two mirrors by hand so the links can be
	// severed.
	var mirrors [2]*core.MirrorSite
	var links [4]*cuttableLink // data,ctrl per mirror
	var coreLinks []core.MirrorLink
	var central *core.Central
	for i := 0; i < 2; i++ {
		i := i
		links[2*i] = &cuttableLink{data: func(es []*event.Event, ref event.Ref) error { return mirrors[i].HandleOwnedBatch(es, ref) }}
		links[2*i+1] = &cuttableLink{ctrl: func(e *event.Event) { mirrors[i].HandleControl(e) }}
		coreLinks = append(coreLinks, core.MirrorLink{Data: links[2*i], Ctrl: links[2*i+1]})
	}
	central = core.NewCentral(core.CentralConfig{
		Streams: 1,
		Params:  core.Params{CheckpointFreq: 25},
		Mirrors: coreLinks,
	})
	defer central.Close()
	for i := 0; i < 2; i++ {
		mirrors[i] = core.NewMirrorSite(core.MirrorSiteConfig{
			SiteID: uint8(i),
			CtrlUp: senderFunc(func(e *event.Event) error { central.HandleControl(e); return nil }),
		})
	}
	defer mirrors[0].Close()

	member := core.NewMembership(central, core.MembershipConfig{
		MissedRounds: 3,
		OnFailure:    func(site int) { fmt.Printf("!! mirror %d excluded after missing 3 checkpoint rounds\n", site) },
		OnRejoin:     func(site int) { fmt.Printf("** mirror %d re-admitted to the quorum\n", site) },
	})

	feed := func(from, n uint64) {
		for i := from; i < from+n; i++ {
			if err := central.Ingest(event.NewPosition(event.FlightID(1+i%5), i, float64(i), 0, 9000, 256)); err != nil {
				log.Fatal(err)
			}
		}
		// Let the pipeline settle.
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Println("streaming with both mirrors healthy...")
	feed(1, 500)
	fmt.Printf("   live mirrors: %d, central backup: %d events retained\n",
		member.Live(), central.Backup().Len())

	fmt.Println("\nsevering mirror 1's links (site crash)...")
	links[2].dead.Store(true)
	links[3].dead.Store(true)
	feed(1000, 500)
	for i := 0; i < 4; i++ {
		central.Checkpoint()
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("   live mirrors: %d (failed: %v), commits still trim: backup = %d\n",
		member.Live(), member.Failed(), central.Backup().Len())

	fmt.Println("\nmirror 1 restarts empty and rejoins...")
	mirrors[1].Close()
	mirrors[1] = core.NewMirrorSite(core.MirrorSiteConfig{
		SiteID: 1,
		CtrlUp: senderFunc(func(e *event.Event) error { central.HandleControl(e); return nil }),
	})
	defer mirrors[1].Close()
	links[2].dead.Store(false)
	links[3].dead.Store(false)
	replayed, err := member.Rejoin(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   recovery transfer: state snapshot + %d replayed backup events\n", replayed)

	feed(2000, 300)
	deadline := time.Now().Add(5 * time.Second)
	for mirrors[1].Processed() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("   rejoined mirror caught up: processed %d events (weighted)\n", mirrors[1].Processed())

	state, err := mirrors[1].Main().RequestInitState()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   and serves clients again: init state = %d bytes\n", state.Len())
}

type senderFunc func(*event.Event) error

func (f senderFunc) Submit(e *event.Event) error { return f(e) }
