package checkpoint_test

import (
	"testing"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/event"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/vclock"
)

// FuzzPromotionHandshake drives the checkpoint control plane through
// central-failure handovers: a coordinator, the central main unit, and
// two mirror sites (with real backup queues and real directive
// appliers) run a fuzzer-chosen interleaving of feeds, processing
// steps, rounds, reply faults (drop, duplicate), directive publishes,
// stale-directive replays, and central crashes — each crash abandons
// the coordinator mid-flight and resumes a fresh one in the next epoch
// via Coordinator.Resume, with the old epoch's straggler replies still
// queued for delivery to the new one. It lives in the external test
// package so the harness can use adapt.Applier (adapt imports core,
// which imports this package).
//
// Machine-checked after every delivery, across every promotion:
//
//   - the committed cut is globally monotone — a promoted coordinator
//     never commits below its predecessor;
//   - no commit runs ahead of any site's processed progress (the
//     mis-commit a stale or duplicated CHKPT_REP would cause);
//   - CHKPT/directive rounds are strictly monotone and stay above the
//     current epoch's base, so receiver watermarks stay sound;
//   - directive appliers install exactly the highest-round directive
//     delivered to them — stale replays bounce off the watermark;
//   - backup-queue structural invariants hold at all times;
//   - whatever the interleaving did, a clean final round under the
//     current coordinator still commits (no permanent wedge).
//
// Op bytes, interpreted modulo 10:
//
//	0 feed one event to all backup queues
//	1 site 0 processes one pending event
//	2 site 1 processes one pending event
//	3 coordinator initiates a round (replies go to the pending queue)
//	4 deliver the oldest pending reply to the current coordinator
//	5 duplicate the oldest pending reply (deliver twice)
//	6 drop the oldest pending reply
//	7 crash the central: abandon the coordinator, resume a new one in
//	  the next epoch (stragglers in the pending queue survive it)
//	8 replay the oldest published directive to both appliers
//	9 publish a changed directive standalone via NextRound
func FuzzPromotionHandshake(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 4, 4})                                  // clean epoch-0 round
	f.Add([]byte{0, 1, 2, 3, 4, 4, 4, 7, 0, 1, 2, 3, 4, 4, 4})          // commit, promote, commit again
	f.Add([]byte{0, 3, 7, 4, 4, 4, 0, 1, 2, 3, 4, 4, 4})                // old-epoch stragglers hit the new coordinator
	f.Add([]byte{9, 0, 1, 2, 3, 4, 4, 4, 7, 9, 8, 8})                   // directives across promotion + stale replays
	f.Add([]byte{0, 1, 2, 3, 5, 4, 4, 7, 3, 4, 4, 4, 6, 5})             // dup completes round, then promoted round with faults
	f.Add([]byte{7, 7, 0, 1, 2, 3, 4, 4, 4, 9})                         // double promotion before any traffic
	f.Add([]byte{0, 0, 3, 4, 7, 4, 4, 0, 1, 1, 2, 2, 3, 4, 5, 4, 8, 9}) // half-voted round dies with its central

	f.Fuzz(func(t *testing.T, ops []byte) {
		const sites = 2
		var (
			history   []vclock.VC // VTs fed so far, in order
			applied   [sites]int  // events each mirror has processed
			central   = queue.NewBackup()
			backups   [sites]*queue.Backup
			pending   []*event.Event // in-flight CHKPT_REP queue
			prev      vclock.VC      // last committed cut, across all epochs
			epoch     uint64
			lastRound uint64         // highest round stamped on any CHKPT/directive
			published []*event.Event // payload-carrying broadcasts, for stale replay
			appliers  [sites]*adapt.Applier
			expRound  [sites]uint64 // model: highest directive round delivered per site
			expID     [sites]uint8  // model: that directive's regime ID
		)
		for i := range backups {
			backups[i] = queue.NewBackup()
			appliers[i] = adapt.NewApplier(nil)
		}
		lastProcessed := func(site int) vclock.VC {
			if applied[site] == 0 {
				return nil
			}
			return history[applied[site]-1].Clone()
		}

		regimeID := uint8(1)
		directive := adapt.EncodeRegime(adapt.Regime{ID: regimeID, CheckpointFreq: 50})

		// deliver pushes one directive through a site's real applier and
		// checks it against the model: a directive above the site's
		// watermark must install, one at or below it must bounce, and
		// the applier's visible state must match the highest delivery.
		deliver := func(site int, round uint64, payload []byte) {
			installed := appliers[site].Apply(round, payload)
			reg, err := adapt.DecodeRegime(payload)
			if err != nil {
				if installed {
					t.Fatalf("site %d installed an undecodable directive", site)
				}
				return
			}
			if round > expRound[site] {
				if !installed {
					t.Fatalf("site %d rejected fresh directive round %d (watermark %d)",
						site, round, expRound[site])
				}
				expRound[site] = round
				expID[site] = reg.ID
			} else if installed {
				t.Fatalf("site %d installed stale directive round %d past watermark %d",
					site, round, expRound[site])
			}
			cur, wm, have := appliers[site].Current()
			if !have || wm != expRound[site] || cur.ID != expID[site] {
				t.Fatalf("site %d applier = (id %d, round %d, have %v), model = (id %d, round %d)",
					site, cur.ID, wm, have, expID[site], expRound[site])
			}
		}

		checkCommit := func(cut vclock.VC) {
			if prev != nil && !prev.LessEq(cut) {
				t.Fatalf("committed cut regressed across epoch %d: %v after %v", epoch, cut, prev)
			}
			prev = cut.Clone()
			for s := 0; s < sites; s++ {
				if lp := lastProcessed(s); !cut.LessEq(lp) {
					t.Fatalf("commit %v beyond site %d progress %v", cut, s, lp)
				}
			}
			if lp := central.Last(); lp != nil && !cut.LessEq(lp) {
				t.Fatalf("commit %v beyond central high water %v", cut, lp)
			}
		}

		mirrors := make([]*checkpoint.Mirror, sites)
		mains := make([]*checkpoint.Main, sites)
		for i := 0; i < sites; i++ {
			i := i
			mains[i] = &checkpoint.Main{
				LastProcessed: func() vclock.VC { return lastProcessed(i) },
				Reply: func(e *event.Event) {
					e.Stream = uint8(i)
					pending = append(pending, e)
				},
			}
			mirrors[i] = &checkpoint.Mirror{
				ToMain:      func(e *event.Event) { mains[i].OnControl(e) },
				ToCentral:   func(e *event.Event) { pending = append(pending, e) },
				Commit:      func(cut vclock.VC) { backups[i].Commit(cut) },
				OnPiggyback: func(round uint64, payload []byte) { deliver(i, round, payload) },
			}
		}
		centralMain := &checkpoint.Main{
			// The central applies every event as it is fed, so its
			// progress outlives the backup's trimmed prefix.
			LastProcessed: func() vclock.VC {
				if len(history) == 0 {
					return nil
				}
				return history[len(history)-1].Clone()
			},
			Reply: func(e *event.Event) {
				e.Stream = checkpoint.CentralParticipant
				pending = append(pending, e)
			},
		}
		broadcast := func(e *event.Event) {
			if e.Type == event.TypeChkpt || e.Type == event.TypeAdapt {
				if e.Seq <= lastRound {
					t.Fatalf("round %d not above previous round %d (epoch %d)", e.Seq, lastRound, epoch)
				}
				if e.Seq <= checkpoint.EpochBase(epoch) {
					t.Fatalf("round %d at or below epoch %d base %d", e.Seq, epoch, checkpoint.EpochBase(epoch))
				}
				lastRound = e.Seq
				if len(e.Payload) > 0 {
					published = append(published, e.Clone())
				}
			}
			for i := range mirrors {
				mirrors[i].OnControl(e.Clone())
			}
			centralMain.OnControl(e.Clone())
		}
		newCoordinator := func() *checkpoint.Coordinator {
			c := &checkpoint.Coordinator{Participants: sites + 1}
			c.Propose = func() vclock.VC {
				if last := central.Last(); last != nil {
					return last
				}
				if cut := central.Committed(); cut != nil {
					return cut
				}
				return vclock.New(1)
			}
			c.Broadcast = broadcast
			c.OnCommit = func(cut vclock.VC) {
				checkCommit(cut)
				central.Commit(cut)
			}
			c.Piggyback = func(round uint64) []byte { return append([]byte(nil), directive...) }
			return c
		}
		coord := newCoordinator()

		checkQueues := func() {
			if err := central.CheckInvariants(); err != nil {
				t.Fatalf("central backup: %v", err)
			}
			for i := range backups {
				if err := backups[i].CheckInvariants(); err != nil {
					t.Fatalf("mirror %d backup: %v", i, err)
				}
			}
		}

		seq := uint64(0)
		for _, op := range ops {
			switch op % 10 {
			case 0: // feed
				seq++
				vt := vclock.VC{seq}
				e := event.NewPosition(event.FlightID(1+seq%3), seq, 0, 0, 0, 16)
				e.VT = vt
				history = append(history, vt)
				central.Append(e)
				for i := range backups {
					backups[i].Append(e.Clone())
				}
			case 1, 2: // a mirror processes one event
				s := int(op%10) - 1
				if applied[s] < len(history) {
					applied[s]++
				}
			case 3:
				coord.Init()
			case 4, 5, 6:
				if len(pending) == 0 {
					continue
				}
				e := pending[0]
				pending = pending[1:]
				switch op % 10 {
				case 5: // duplicate
					coord.OnReply(e.Clone())
					coord.OnReply(e)
				case 6: // drop
				default:
					coord.OnReply(e)
				}
			case 7: // central crash: promote into the next epoch
				epoch++
				floor := checkpoint.EpochBase(epoch)
				if lastRound > floor {
					floor = lastRound
				}
				coord = newCoordinator()
				coord.Resume(floor)
			case 8: // stale replay of the oldest published directive
				if len(published) == 0 {
					continue
				}
				d := published[0]
				for i := 0; i < sites; i++ {
					deliver(i, d.Seq, d.Payload)
				}
			case 9: // publish a changed directive standalone
				regimeID++
				directive = adapt.EncodeRegime(adapt.Regime{ID: regimeID, CheckpointFreq: 50})
				ev := event.NewControl(event.TypeAdapt, nil)
				ev.Seq = coord.NextRound()
				ev.Payload = append([]byte(nil), directive...)
				broadcast(ev)
			}
			checkQueues()
		}

		// Whatever interleaving the fuzzer chose — crashes included —
		// a clean final round under the current coordinator with full
		// delivery must still commit: promotions and stragglers never
		// wedge the protocol permanently.
		for i := range applied {
			applied[i] = len(history)
		}
		// Flush stragglers first; old-epoch replies must bounce off the
		// resumed coordinator's floor (and an open current round may
		// legitimately complete here, emptying the backup).
		for len(pending) > 0 {
			e := pending[0]
			pending = pending[1:]
			coord.OnReply(e)
		}
		if central.Last() != nil {
			_, before := coord.Stats()
			coord.Init()
			for len(pending) > 0 {
				e := pending[0]
				pending = pending[1:]
				coord.OnReply(e)
			}
			if _, after := coord.Stats(); after != before+1 {
				t.Fatalf("clean final round did not commit (%d -> %d, epoch %d)", before, after, epoch)
			}
			checkQueues()
		}
	})
}
