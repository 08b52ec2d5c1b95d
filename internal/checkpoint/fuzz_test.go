package checkpoint

import (
	"testing"

	"adaptmirror/internal/event"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/vclock"
)

// FuzzCheckpointControl drives the full checkpoint control plane — a
// coordinator, the central main unit, and two mirror sites with real
// backup queues — with a fuzzer-chosen interleaving of feeds,
// processing steps, round initiations, and control-link faults (drop,
// duplicate, reorder, corrupt) on the reply path. The protocol's
// written-down safety properties are asserted after every delivery:
// no panic, committed cuts monotone, every commit at or below every
// voter's processed progress (a violation is a silent mis-commit —
// exactly what a duplicated reply, or an exclusion that dropped the
// count for a site that had already voted, used to cause), and
// backup-queue invariants intact at all times. The voters a commit is
// held to are the sites its round started with that stayed live
// throughout: an excluded mirror receives no CHKPT or COMMIT and may
// legitimately fall behind. Automatic triggers (op 8) must keep to
// commit pacing: a trigger starts a round over an open one only as
// deferral overflow, an owed trigger never waits behind a closed
// round, and a round closing with a trigger owed starts the next one
// at once.
//
// Op bytes, interpreted modulo 13:
//
//	0 feed one event to all backup queues
//	1 site 0 processes one pending event
//	2 site 1 processes one pending event
//	3 coordinator initiates a round (replies go to the pending queue)
//	4 deliver the oldest pending reply
//	5 drop the oldest pending reply
//	6 duplicate the oldest pending reply (deliver twice)
//	7 corrupt the oldest pending reply's payload, then deliver it
//	8 an automatic trigger (Due)
//	9 exclude site 0
//	10 exclude site 1
//	11 rejoin site 0: catch it up to the feed, re-admit it (it votes
//	   from the next round)
//	12 rejoin site 1
func FuzzCheckpointControl(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 4, 4})                // clean round, everyone replies
	f.Add([]byte{0, 1, 3, 6, 6, 6, 0, 2, 3, 4, 4})       // duplicated replies must not commit early
	f.Add([]byte{0, 1, 3, 6, 5, 4})                      // dup fast site + drop slow site = subset commit if dedup breaks
	f.Add([]byte{0, 0, 0, 1, 1, 2, 3, 5, 3, 4, 4, 4, 4}) // dropped reply, subsuming round
	f.Add([]byte{0, 1, 2, 3, 7, 7, 7, 0, 3, 4, 4, 4})    // corrupted payloads
	f.Add([]byte{3, 3, 3, 0, 3, 4, 1, 4, 2, 4, 4, 0, 0, 3, 4, 4, 4, 6, 5})
	f.Add([]byte{0, 1, 2, 8, 0, 8, 8, 4, 4, 4, 4, 4, 4})             // owed trigger starts the next round on commit
	f.Add([]byte{0, 8, 5, 8, 8, 8, 8, 8, 8, 8, 8, 8, 4, 4, 4, 1, 2}) // dropped reply heals by deferral overflow
	f.Add([]byte{0, 1, 3, 10, 11, 4, 12, 0, 1, 2, 3, 4, 4, 4})       // exclusions and re-admissions across rounds

	f.Fuzz(func(t *testing.T, ops []byte) {
		const sites = 2
		var (
			history []vclock.VC // VTs fed so far, in order
			applied [sites]int  // events each mirror has processed
			central = queue.NewBackup()
			backups [sites]*queue.Backup
			pending []*event.Event // in-flight CHKPT_REP queue
			prev    vclock.VC      // last committed cut
			chkpts  int            // CHKPT broadcasts so far
			commits int            // commits so far
			voters  [sites]bool    // the open round's mirror voters still live since it started
		)
		for i := range backups {
			backups[i] = queue.NewBackup()
		}
		lastProcessed := func(site int) vclock.VC {
			if applied[site] == 0 {
				return nil
			}
			return history[applied[site]-1].Clone()
		}

		coord := &Coordinator{Participants: sites + 1}
		coord.Propose = central.Last
		checkCommit := func(cut vclock.VC) {
			if prev != nil && !prev.LessEq(cut) {
				t.Fatalf("committed cut regressed: %v after %v", cut, prev)
			}
			prev = cut.Clone()
			// The mis-commit detector: a commit is the min over every
			// distinct voter's vote, and votes never exceed the voter's
			// progress, so a commit past a voter's progress means the
			// round completed without that voter.
			for s := 0; s < sites; s++ {
				if lp := lastProcessed(s); voters[s] && !cut.LessEq(lp) {
					t.Fatalf("commit %v beyond site %d progress %v", cut, s, lp)
				}
			}
			if lp := central.Last(); lp != nil && !cut.LessEq(lp) {
				t.Fatalf("commit %v beyond central high water %v", cut, lp)
			}
		}
		coord.OnCommit = func(cut vclock.VC) {
			checkCommit(cut)
			central.Commit(cut)
			commits++
		}

		mirrors := make([]*Mirror, sites)
		mains := make([]*Main, sites)
		for i := 0; i < sites; i++ {
			i := i
			mains[i] = &Main{
				LastProcessed: func() vclock.VC { return lastProcessed(i) },
				Reply: func(e *event.Event) {
					e.Stream = uint8(i)
					// Deployed replies carry a piggybacked monitor
					// sample; give the corrupt op something to damage.
					e.Payload = []byte{byte(i), 0xAB, 0xCD}
					pending = append(pending, e)
				},
			}
			mirrors[i] = &Mirror{
				ToMain:    func(e *event.Event) { mains[i].OnControl(e) },
				ToCentral: func(e *event.Event) { pending = append(pending, e) },
				Commit:    func(cut vclock.VC) { backups[i].Commit(cut) },
			}
		}
		centralMain := &Main{
			LastProcessed: central.Last,
			Reply: func(e *event.Event) {
				e.Stream = CentralParticipant
				pending = append(pending, e)
			},
		}
		coord.Broadcast = func(e *event.Event) {
			if e.Type == event.TypeChkpt {
				chkpts++
				for i := range voters {
					voters[i] = coord.Alive(i)
				}
			}
			for i := range mirrors {
				if coord.Alive(i) {
					mirrors[i].OnControl(e.Clone())
				}
			}
			centralMain.OnControl(e.Clone())
		}

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

		// pacing reads the coordinator's round state (same package).
		pacing := func() (open bool, deferred int, owed bool) {
			coord.mu.Lock()
			defer coord.mu.Unlock()
			return coord.open(), coord.deferred, coord.owed
		}

		seq := uint64(0)
		for _, op := range ops {
			wasOpen, deferred, owed := pacing()
			chkptsBefore, commitsBefore := chkpts, commits
			switch op % 13 {
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
				s := int(op%13) - 1
				if applied[s] < len(history) {
					applied[s]++
				}
			case 3:
				coord.Init()
			case 4, 5, 6, 7:
				if len(pending) == 0 {
					continue
				}
				e := pending[0]
				pending = pending[1:]
				switch op % 13 {
				case 5: // drop
				case 6: // duplicate
					coord.OnReply(e.Clone())
					coord.OnReply(e)
				case 7: // corrupt payload only (framing survives)
					if len(e.Payload) > 0 {
						e.Payload[0] ^= 0xFF
					}
					coord.OnReply(e)
				default:
					coord.OnReply(e)
				}
			case 8:
				started := coord.Due()
				if started != (chkpts > chkptsBefore) {
					t.Fatalf("Due reported started=%v with %d CHKPTs broadcast", started, chkpts-chkptsBefore)
				}
				switch {
				case wasOpen && started && deferred < maxDeferred:
					t.Fatalf("trigger abandoned an open round after %d deferrals, want %d", deferred, maxDeferred)
				case wasOpen && !started && deferred >= maxDeferred && central.Last() != nil:
					t.Fatalf("trigger deferred past %d deferrals", deferred)
				case !wasOpen && !started && central.Last() != nil:
					t.Fatal("trigger with no round open started none")
				}
			case 9, 10:
				s := int(op%13) - 9
				voters[s] = false
				coord.Exclude(s)
			case 11, 12:
				// A rejoin: the state transfer brings the site up to
				// everything fed so far before it is admitted.
				s := int(op%13) - 11
				if !coord.Alive(s) {
					applied[s] = len(history)
				}
				coord.Admit(s)
			}
			open, _, nowOwed := pacing()
			if nowOwed && !open {
				t.Fatal("owed trigger waits behind a closed round")
			}
			if owed && commits > commitsBefore && chkpts == chkptsBefore && central.Last() != nil {
				t.Fatal("round closed with a trigger owed, but no next round started")
			}
			checkQueues()
		}

		// Whatever interleaving the fuzzer chose, a clean final round
		// with full delivery must still commit: faults never wedge the
		// protocol permanently.
		if central.Last() != nil {
			for i := range applied {
				applied[i] = len(history)
			}
			pending = nil
			_, before := coord.Stats()
			coord.Init()
			for len(pending) > 0 {
				e := pending[0]
				pending = pending[1:]
				coord.OnReply(e)
			}
			if _, after := coord.Stats(); after != before+1 {
				t.Fatalf("clean final round did not commit (%d -> %d)", before, after)
			}
			checkQueues()
		}
	})
}
