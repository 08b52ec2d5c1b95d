package checkpoint

import (
	"fmt"
	"sync"
	"testing"

	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/vclock"
)

// harness wires a coordinator, n mirror-aux participants (each with a
// main unit and backup queue), and the central main unit, all over
// direct function calls.
type harness struct {
	coord      *Coordinator
	central    *queue.Backup
	mirrors    []*Mirror
	mirrorBk   []*queue.Backup
	mains      []*Main
	mainLast   []vclock.VC
	mu         sync.Mutex
	commitsAt  []vclock.VC // commit timestamps observed at central
	centralRep vclock.VC   // central main unit's progress
}

func newHarness(nMirrors int) *harness {
	h := &harness{central: queue.NewBackup()}
	h.coord = &Coordinator{
		Propose:      func() vclock.VC { return proposal(h.central) },
		Participants: nMirrors + 1, // mirrors + central main unit
	}
	h.coord.OnCommit = func(ts vclock.VC) {
		h.central.Commit(ts)
		h.mu.Lock()
		h.commitsAt = append(h.commitsAt, ts)
		h.mu.Unlock()
	}

	// Central main unit replies directly to the coordinator, stamped
	// with the reserved participant identity.
	centralMain := &Main{
		LastProcessed: func() vclock.VC {
			h.mu.Lock()
			defer h.mu.Unlock()
			return h.centralRep.Clone()
		},
		Reply: func(e *event.Event) {
			e.Stream = CentralParticipant
			h.coord.OnReply(e)
		},
	}

	h.mirrorBk = make([]*queue.Backup, nMirrors)
	h.mainLast = make([]vclock.VC, nMirrors)
	h.mirrors = make([]*Mirror, nMirrors)
	h.mains = make([]*Main, nMirrors)
	for i := 0; i < nMirrors; i++ {
		i := i
		h.mirrorBk[i] = queue.NewBackup()
		h.mains[i] = &Main{
			LastProcessed: func() vclock.VC {
				h.mu.Lock()
				defer h.mu.Unlock()
				return h.mainLast[i].Clone()
			},
		}
		h.mirrors[i] = &Mirror{
			ToMain: func(e *event.Event) { h.mains[i].OnControl(e) },
			ToCentral: func(e *event.Event) {
				e.Stream = uint8(i) // site identity, as the core wiring stamps it
				h.coord.OnReply(e)
			},
			Commit: func(ts vclock.VC) { h.mirrorBk[i].Commit(ts) },
		}
		h.mains[i].Reply = func(e *event.Event) { h.mirrors[i].OnControl(e) }
	}

	h.coord.Broadcast = func(e *event.Event) {
		for _, m := range h.mirrors {
			m.OnControl(e.Clone())
		}
		centralMain.OnControl(e.Clone())
	}
	return h
}

// proposal is the central's proposal rule over backup b: the newest
// backed-up event, else the committed cut, else the zero clock.
func proposal(b *queue.Backup) vclock.VC {
	if last := b.Last(); last != nil {
		return last
	}
	if cut := b.Committed(); cut != nil {
		return cut
	}
	return vclock.New(1)
}

func (h *harness) setProgress(central uint64, mirrors ...uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.centralRep = vclock.VC{central}
	for i, m := range mirrors {
		h.mainLast[i] = vclock.VC{m}
	}
}

func (h *harness) feed(n uint64) {
	for i := uint64(1); i <= n; i++ {
		e := &event.Event{Type: event.TypeFAAPosition, Seq: i, Coalesced: 1, VT: vclock.VC{i}}
		h.central.Append(e)
		for _, bk := range h.mirrorBk {
			bk.Append(e.Clone())
		}
	}
}

func TestRoundCommitsMinimum(t *testing.T) {
	h := newHarness(2)
	h.feed(10)
	// Central main processed through 9; mirror mains through 7 and 5.
	h.setProgress(9, 7, 5)
	h.coord.Init()
	if len(h.commitsAt) != 1 {
		t.Fatalf("commits = %d, want 1", len(h.commitsAt))
	}
	// Commit = min(propose=10, central=9, mirrors 7 and 5) = 5.
	if got := h.commitsAt[0]; got.Compare(vclock.VC{5}) != vclock.Equal {
		t.Fatalf("commit = %v, want <5>", got)
	}
	if h.central.Len() != 5 {
		t.Fatalf("central backup len = %d, want 5", h.central.Len())
	}
	for i, bk := range h.mirrorBk {
		if bk.Len() != 5 {
			t.Fatalf("mirror %d backup len = %d, want 5", i, bk.Len())
		}
	}
}

// TestEmptyBackupProposesCommittedCut: a round over an empty backup
// still runs. It proposes the zero clock before the first commit and
// the committed cut after it, so it commits what is already committed.
func TestEmptyBackupProposesCommittedCut(t *testing.T) {
	h := newHarness(1)
	h.coord.Init()
	if rounds, commits := h.coord.Stats(); rounds != 1 || commits != 1 || h.commitsAt[0].Sum() != 0 {
		t.Fatalf("stats = %d rounds %d commits, commits %v; want one zero commit", rounds, commits, h.commitsAt)
	}
	h.feed(4)
	h.setProgress(4, 4)
	h.coord.Init()
	h.coord.Init()
	if got := fmt.Sprint(h.commitsAt); got != "[<0> <4> <4>]" {
		t.Fatalf("commits = %s, want [<0> <4> <4>]", got)
	}
	if h.central.Len() != 0 || h.mirrorBk[0].Len() != 0 {
		t.Fatalf("backups = %d, %d; want both trimmed", h.central.Len(), h.mirrorBk[0].Len())
	}
}

func TestSuccessiveRoundsAdvance(t *testing.T) {
	h := newHarness(1)
	h.feed(4)
	h.setProgress(4, 4)
	h.coord.Init()
	if h.central.Len() != 0 {
		t.Fatalf("after full commit central backup = %d", h.central.Len())
	}
	h.feed(4) // seq 1..4 again is stale; feed stamps 1..4 — need fresh stamps
	// Re-feed with higher stamps.
	for i := uint64(5); i <= 8; i++ {
		e := &event.Event{Type: event.TypeFAAPosition, Seq: i, Coalesced: 1, VT: vclock.VC{i}}
		h.central.Append(e)
		h.mirrorBk[0].Append(e.Clone())
	}
	h.setProgress(8, 6)
	h.coord.Init()
	if got := h.commitsAt[len(h.commitsAt)-1]; got.Compare(vclock.VC{6}) != vclock.Equal {
		t.Fatalf("second commit = %v, want <6>", got)
	}
}

func TestStaleReplyIgnored(t *testing.T) {
	h := newHarness(1)
	h.feed(5)
	h.setProgress(5, 5)
	h.coord.Init()
	_, commits := h.coord.Stats()
	// Inject a reply for a long-gone round; nothing should change.
	stale := event.NewControl(event.TypeChkptReply, vclock.VC{1})
	stale.Seq = 999
	h.coord.OnReply(stale)
	if _, c := h.coord.Stats(); c != commits {
		t.Fatalf("stale reply caused a commit: %d -> %d", commits, c)
	}
}

func TestDuplicateAndExtraRepliesIgnored(t *testing.T) {
	h := newHarness(1)
	h.feed(5)
	h.setProgress(5, 5)
	h.coord.Init()
	// Round completed; a duplicate reply for the same round must not
	// trigger another commit.
	dup := event.NewControl(event.TypeChkptReply, vclock.VC{2})
	dup.Seq = 1
	h.coord.OnReply(dup)
	if _, commits := h.coord.Stats(); commits != 1 {
		t.Fatalf("commits = %d, want 1", commits)
	}
}

func TestDuplicatedReplyDoesNotCompleteRoundEarly(t *testing.T) {
	// A control link that duplicates messages delivers the same site's
	// CHKPT_REP twice mid-round. The duplicate must not count toward
	// the quorum: committing on {site0, site0} would take the minimum
	// over a subset and could trim past the central's actual progress.
	c, _, committed := directCoord(2)
	c.Init()
	reply(c, 1, 0, 9)
	reply(c, 1, 0, 9) // duplicated delivery of the same vote
	if len(*committed) != 0 {
		t.Fatalf("duplicate reply completed the round: %v", *committed)
	}
	reply(c, 1, central, 4)
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{4}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<4>]", *committed)
	}
}

func TestNonReplyEventIgnoredByCoordinator(t *testing.T) {
	h := newHarness(1)
	h.feed(3)
	h.setProgress(3, 3)
	h.coord.OnReply(event.NewControl(event.TypeCommit, vclock.VC{3})) // wrong type
	if _, commits := h.coord.Stats(); commits != 0 {
		t.Fatal("wrong-type event advanced the protocol")
	}
}

func TestLaterRoundSubsumesAbandoned(t *testing.T) {
	// Manually drive a coordinator whose participants never reply to
	// round 1; round 2 must commit and round-1 replies arriving later
	// must be ignored.
	var sent []*event.Event
	var committed []vclock.VC
	proposals := []vclock.VC{{5}, {8}}
	c := &Coordinator{
		Propose:      func() vclock.VC { v := proposals[0]; proposals = proposals[1:]; return v },
		Broadcast:    func(e *event.Event) { sent = append(sent, e) },
		OnCommit:     func(ts vclock.VC) { committed = append(committed, ts) },
		Participants: 1,
	}
	c.Init() // round 1, no replies
	c.Init() // round 2 abandons round 1
	rep := event.NewControl(event.TypeChkptReply, vclock.VC{7})
	rep.Seq = 2
	rep.Stream = CentralParticipant
	c.OnReply(rep)
	if len(committed) != 1 || committed[0].Compare(vclock.VC{7}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<7>]", committed)
	}
	// Late reply for abandoned round 1.
	late := event.NewControl(event.TypeChkptReply, vclock.VC{3})
	late.Seq = 1
	c.OnReply(late)
	if len(committed) != 1 {
		t.Fatalf("late round-1 reply caused commit: %v", committed)
	}
}

func TestZeroParticipantsCommitsImmediately(t *testing.T) {
	var committed []vclock.VC
	c := &Coordinator{
		Propose:      func() vclock.VC { return vclock.VC{4} },
		Broadcast:    func(*event.Event) {},
		OnCommit:     func(ts vclock.VC) { committed = append(committed, ts) },
		Participants: 0,
	}
	c.Init()
	if len(committed) != 1 || committed[0].Compare(vclock.VC{4}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<4>]", committed)
	}
}

func TestMainRepliesMinOfProposalAndProgress(t *testing.T) {
	var replies []*event.Event
	m := &Main{
		LastProcessed: func() vclock.VC { return vclock.VC{3} },
		Reply:         func(e *event.Event) { replies = append(replies, e) },
	}
	chkpt := event.NewControl(event.TypeChkpt, vclock.VC{10})
	chkpt.Seq = 7
	m.OnControl(chkpt)
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	if replies[0].VT.Compare(vclock.VC{3}) != vclock.Equal {
		t.Fatalf("reply VT = %v, want <3>", replies[0].VT)
	}
	if replies[0].Seq != 7 {
		t.Fatalf("reply round = %d, want 7", replies[0].Seq)
	}
	// Progress ahead of proposal: reply capped at proposal.
	m2 := &Main{
		LastProcessed: func() vclock.VC { return vclock.VC{20} },
		Reply:         func(e *event.Event) { replies = append(replies, e) },
	}
	m2.OnControl(chkpt)
	if replies[1].VT.Compare(vclock.VC{10}) != vclock.Equal {
		t.Fatalf("reply VT = %v, want <10>", replies[1].VT)
	}
}

func TestMainWithNoProgressVotesZero(t *testing.T) {
	var replies []*event.Event
	m := &Main{
		LastProcessed: func() vclock.VC { return nil },
		Reply:         func(e *event.Event) { replies = append(replies, e) },
	}
	m.OnControl(event.NewControl(event.TypeChkpt, vclock.VC{10, 2}))
	if len(replies) != 1 {
		t.Fatal("no reply")
	}
	if replies[0].VT.Compare(vclock.VC{0, 0}) != vclock.Equal {
		t.Fatalf("reply VT = %v, want <0,0>", replies[0].VT)
	}
}

func TestMainCommitCallback(t *testing.T) {
	var got vclock.VC
	m := &Main{
		LastProcessed: func() vclock.VC { return nil },
		Reply:         func(*event.Event) {},
		Commit:        func(ts vclock.VC) { got = ts },
	}
	m.OnControl(event.NewControl(event.TypeCommit, vclock.VC{6}))
	if got.Compare(vclock.VC{6}) != vclock.Equal {
		t.Fatalf("commit callback got %v", got)
	}
}

func TestPiggybackDelivery(t *testing.T) {
	var delivered [][]byte
	var rounds []uint64
	coord := &Coordinator{
		Propose:      func() vclock.VC { return vclock.VC{1} },
		Participants: 1,
		Piggyback: func(round uint64) []byte {
			return []byte(fmt.Sprintf("adapt:coalesce=20@%d", round))
		},
	}
	mirror := &Mirror{
		ToMain:    func(*event.Event) {},
		ToCentral: func(*event.Event) {},
		OnPiggyback: func(round uint64, b []byte) {
			rounds = append(rounds, round)
			delivered = append(delivered, b)
		},
	}
	coord.Broadcast = func(e *event.Event) { mirror.OnControl(e) }
	coord.Init()
	if len(delivered) != 1 || string(delivered[0]) != "adapt:coalesce=20@1" {
		t.Fatalf("delivered = %q", delivered)
	}
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("piggyback rounds = %v, want [1]", rounds)
	}
}

func TestStandaloneAdaptDirectiveDelivery(t *testing.T) {
	// A TypeAdapt control event (a directive re-broadcast outside any
	// checkpoint round) reaches the piggyback hook with its round stamp
	// and is not forwarded to the main unit.
	var delivered [][]byte
	var rounds []uint64
	toMain := 0
	mirror := &Mirror{
		ToMain:    func(*event.Event) { toMain++ },
		ToCentral: func(*event.Event) {},
		OnPiggyback: func(round uint64, b []byte) {
			rounds = append(rounds, round)
			delivered = append(delivered, b)
		},
	}
	ev := event.NewControl(event.TypeAdapt, nil)
	ev.Seq = 7
	ev.Payload = []byte("regime")
	mirror.OnControl(ev)
	if len(delivered) != 1 || string(delivered[0]) != "regime" {
		t.Fatalf("delivered = %q", delivered)
	}
	if len(rounds) != 1 || rounds[0] != 7 {
		t.Fatalf("rounds = %v, want [7]", rounds)
	}
	if toMain != 0 {
		t.Fatalf("standalone directive forwarded to main %d times", toMain)
	}
}

func TestCommitForTrimmedEventIgnored(t *testing.T) {
	// Mirror receives a commit for a timestamp its backup queue has
	// already trimmed; per the paper it is ignored (no state change,
	// no error).
	bk := queue.NewBackup()
	bk.Append(&event.Event{VT: vclock.VC{1}, Coalesced: 1})
	bk.Append(&event.Event{VT: vclock.VC{2}, Coalesced: 1})
	bk.Commit(vclock.VC{2})
	m := &Mirror{
		ToMain:    func(*event.Event) {},
		ToCentral: func(*event.Event) {},
		Commit:    func(ts vclock.VC) { bk.Commit(ts) },
	}
	m.OnControl(event.NewControl(event.TypeCommit, vclock.VC{1}))
	if bk.Len() != 0 {
		t.Fatalf("backup len = %d", bk.Len())
	}
	if got := bk.Committed(); got.Compare(vclock.VC{2}) != vclock.Equal {
		t.Fatalf("committed regressed to %v", got)
	}
}

func TestConcurrentRepliesSafe(t *testing.T) {
	c := &Coordinator{
		Propose:      func() vclock.VC { return vclock.VC{100} },
		Broadcast:    func(*event.Event) {},
		OnCommit:     func(vclock.VC) {},
		Participants: 8,
	}
	c.Init()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := event.NewControl(event.TypeChkptReply, vclock.VC{uint64(10 + i)})
			rep.Seq = 1
			rep.Stream = uint8(i) // mirror slots 0..6, then the central
			if i == 7 {
				rep.Stream = central
			}
			c.OnReply(rep)
		}(i)
	}
	wg.Wait()
	if _, commits := c.Stats(); commits != 1 {
		t.Fatalf("commits = %d, want 1", commits)
	}
}

// directCoord builds a coordinator whose broadcasts and commits are
// recorded; participants are driven by hand via OnReply.
func directCoord(participants int) (*Coordinator, *[]*event.Event, *[]vclock.VC) {
	var (
		mu        sync.Mutex
		sent      []*event.Event
		committed []vclock.VC
	)
	c := &Coordinator{
		Propose: func() vclock.VC { return vclock.VC{100} },
		Broadcast: func(e *event.Event) {
			mu.Lock()
			sent = append(sent, e)
			mu.Unlock()
		},
		OnCommit: func(ts vclock.VC) {
			mu.Lock()
			committed = append(committed, ts)
			mu.Unlock()
		},
		Participants: participants,
	}
	return c, &sent, &committed
}

// central is the central main unit's reply identity.
const central = CentralParticipant

func reply(c *Coordinator, round uint64, site uint8, ts uint64) {
	rep := event.NewControl(event.TypeChkptReply, vclock.VC{ts})
	rep.Seq = round
	rep.Stream = site
	c.OnReply(rep)
}

func TestShrinkMidRoundCompletesWithReceivedMin(t *testing.T) {
	// The central and mirror 0 reply, mirror 1 dies. Excluding it must
	// commit the round with the minimum of the two received replies
	// instead of blocking forever.
	c, _, committed := directCoord(3)
	c.Init()
	reply(c, 1, 0, 7)
	reply(c, 1, central, 9)
	c.Exclude(1)
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{7}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<7>]", *committed)
	}
	// A late reply from the departed participant must not re-commit.
	reply(c, 1, 1, 3)
	if len(*committed) != 1 {
		t.Fatalf("late reply from departed participant re-committed: %v", *committed)
	}
}

func TestExcludeBeforeAnyVoteCommitsNothing(t *testing.T) {
	// The only mirror dies before anyone replied. The exclusion commits
	// nothing: the round still waits for the central, and the
	// straggler reply of the excluded mirror is ignored.
	c, _, committed := directCoord(2)
	c.Init()
	c.Exclude(0)
	if len(*committed) != 0 {
		t.Fatalf("commit with zero replies: %v", *committed)
	}
	reply(c, 1, 0, 5)
	if len(*committed) != 0 {
		t.Fatalf("excluded mirror's straggler reply committed: %v", *committed)
	}
	reply(c, 1, central, 6)
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{6}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<6>]", *committed)
	}
	// The next round waits for the central alone.
	c.Init()
	reply(c, 2, central, 7)
	if len(*committed) != 2 {
		t.Fatalf("commits after the central's vote = %d, want 2", len(*committed))
	}
}

func TestShrinkBelowRepliesReceived(t *testing.T) {
	// Exclude every outstanding voter: the round commits exactly once,
	// on the exclusion that leaves it waiting for nobody.
	c, _, committed := directCoord(4)
	c.Init()
	reply(c, 1, central, 12)
	for site := 0; site < 3; site++ {
		c.Exclude(site)
	}
	c.Exclude(2) // already out: no effect
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{12}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<12>]", *committed)
	}
}

func TestGrowthMidRoundDefersToNextInit(t *testing.T) {
	// A participant admitted mid-round never saw the open round's CHKPT,
	// so admission must not make the open round wait for it, and its
	// reply to that round is not a vote.
	c, _, committed := directCoord(3)
	c.Exclude(1)
	c.Init()
	reply(c, 1, central, 4)
	c.Admit(1)
	if !c.Alive(1) {
		t.Fatal("admitted mirror not alive")
	}
	reply(c, 1, 1, 2) // not a voter of round 1
	if len(*committed) != 0 {
		t.Fatalf("admitted mirror's reply counted in the open round: %v", *committed)
	}
	reply(c, 1, 0, 6)
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{4}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<4>]", *committed)
	}
	// The next round requires all three.
	c.Init()
	reply(c, 2, central, 8)
	reply(c, 2, 0, 9)
	if len(*committed) != 1 {
		t.Fatalf("round 2 committed early: %v", *committed)
	}
	reply(c, 2, 1, 10)
	if len(*committed) != 2 {
		t.Fatalf("round 2 did not commit after 3 replies: %v", *committed)
	}
}

func TestExcludeAfterVoteStillNeedsTheRest(t *testing.T) {
	// Mirror 0 votes, then is excluded. Its vote stays counted and the
	// round still waits for mirror 1: dropping the count on exclusion
	// would commit the central's and mirror 0's minimum past mirror 1's
	// progress.
	c, _, committed := directCoord(3)
	c.Init()
	reply(c, 1, 0, 10)
	reply(c, 1, central, 10)
	c.Exclude(0)
	if len(*committed) != 0 {
		t.Fatalf("round committed without mirror 1's vote: %v", *committed)
	}
	if c.Alive(0) || !c.Alive(1) {
		t.Fatalf("Alive(0), Alive(1) = %v, %v; want false, true", c.Alive(0), c.Alive(1))
	}
	reply(c, 1, 1, 3)
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{3}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<3>]", *committed)
	}
}

func TestReplyFromNonVoterIgnored(t *testing.T) {
	// Participants 3 is the central and mirrors 0 and 1. A reply from a
	// slot out of range, or from one excluded before the round started,
	// is not a vote.
	c, _, committed := directCoord(3)
	c.Exclude(1)
	c.Init()
	reply(c, 1, 1, 1) // excluded before the round
	reply(c, 1, 7, 1) // no such slot
	reply(c, 1, 0, 5)
	if len(*committed) != 0 {
		t.Fatalf("non-voter replies completed the round: %v", *committed)
	}
	reply(c, 1, central, 6)
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{5}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<5>]", *committed)
	}
}

func TestShrinkIdleCoordinatorNoEffect(t *testing.T) {
	// Excluding with no open round must not commit, and a later round
	// waits for the remaining voters only.
	c, _, committed := directCoord(3)
	c.Exclude(1)
	if len(*committed) != 0 {
		t.Fatalf("idle exclusion committed: %v", *committed)
	}
	c.Init()
	reply(c, 1, central, 2)
	reply(c, 1, 0, 3)
	if len(*committed) != 1 {
		t.Fatalf("commits = %d, want 1", len(*committed))
	}
}

func TestConcurrentShrinkAndReplies(t *testing.T) {
	// A mid-round exclusion racing OnReply must produce exactly one
	// commit (either path may deliver it) and never deadlock.
	for iter := 0; iter < 50; iter++ {
		c, _, committed := directCoord(8)
		c.Init()
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reply(c, 1, uint8(i), uint64(10+i))
			}(i)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			reply(c, 1, central, 9)
		}()
		go func() {
			defer wg.Done()
			c.Exclude(6)
		}()
		wg.Wait()
		if len(*committed) != 1 {
			t.Fatalf("iter %d: commits = %d, want 1", iter, len(*committed))
		}
	}
}

func BenchmarkCheckpointRound(b *testing.B) {
	h := newHarness(4)
	h.feed(uint64(b.N%1000 + 100))
	h.setProgress(50, 50, 50, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.coord.Init()
	}
}

// TestDuePacing drives automatic triggers through the coordinator's
// commit pacing: at most one automatic round in flight, owed triggers
// released by whatever closes the round, and only ticks and explicit
// rounds abandoning the open one.
func TestDuePacing(t *testing.T) {
	type step func(c *Coordinator, propose *uint64)
	due := func(n int) step {
		return func(c *Coordinator, _ *uint64) {
			for i := 0; i < n; i++ {
				c.Due()
			}
		}
	}
	propose := func(v uint64) step { return func(_ *Coordinator, p *uint64) { *p = v } }
	vote := func(round uint64, site uint8) step {
		return func(c *Coordinator, _ *uint64) { reply(c, round, site, 1) }
	}
	initRound := func(c *Coordinator, _ *uint64) { c.Init() }
	tick := func(c *Coordinator, _ *uint64) { c.Tick() }
	nextRound := func(c *Coordinator, _ *uint64) { c.NextRound() }
	exclude := func(site int) step { return func(c *Coordinator, _ *uint64) { c.Exclude(site) } }

	cases := []struct {
		name         string
		participants int
		steps        []step
		// chkpts lists each CHKPT broadcast as {round, proposal}.
		chkpts  [][2]uint64
		commits int
		open    bool
	}{
		{
			name: "trigger with no round open starts one", participants: 2,
			steps:  []step{propose(5), due(1)},
			chkpts: [][2]uint64{{1, 5}}, open: true,
		},
		{
			name: "trigger while a round is open defers it", participants: 2,
			steps:  []step{propose(5), due(1), propose(9), due(100)},
			chkpts: [][2]uint64{{1, 5}}, open: true,
		},
		{
			name: "the tick after a triggered round starts none", participants: 2,
			steps:  []step{propose(5), due(1), propose(9), due(3), tick},
			chkpts: [][2]uint64{{1, 5}}, open: true,
		},
		{
			name: "commit with an owed trigger starts the next round with the newest proposal", participants: 1,
			steps:  []step{propose(5), due(1), propose(9), due(3), vote(1, central)},
			chkpts: [][2]uint64{{1, 5}, {2, 9}}, commits: 1, open: true,
		},
		{
			name: "commit with nothing owed leaves no round open", participants: 1,
			steps:  []step{propose(5), due(1), vote(1, central)},
			chkpts: [][2]uint64{{1, 5}}, commits: 1,
		},
		{
			name: "the second tick without a new round abandons it", participants: 2,
			steps:  []step{propose(5), due(1), propose(9), due(3), tick, tick, vote(1, 0), vote(1, central)},
			chkpts: [][2]uint64{{1, 5}, {2, 9}}, open: true,
		},
		{
			name: "the healing round commits and clears the owed trigger", participants: 1,
			steps:  []step{propose(5), due(10), tick, tick, vote(2, central)},
			chkpts: [][2]uint64{{1, 5}, {2, 5}}, commits: 1,
		},
		{
			name: "Init always abandons the open round", participants: 1,
			steps:  []step{propose(5), due(1), propose(9), initRound, vote(1, central)},
			chkpts: [][2]uint64{{1, 5}, {2, 9}}, open: true,
		},
		{
			name: "Init satisfies an owed trigger", participants: 1,
			steps:  []step{propose(5), due(2), propose(9), initRound, vote(2, central)},
			chkpts: [][2]uint64{{1, 5}, {2, 9}}, commits: 1,
		},
		{
			name: "NextRound closes the round and releases the owed trigger", participants: 1,
			steps:  []step{propose(5), due(2), propose(9), nextRound},
			chkpts: [][2]uint64{{1, 5}, {3, 9}}, open: true,
		},
		{
			name: "NextRound with nothing owed leaves no round open", participants: 1,
			steps:  []step{propose(5), due(1), nextRound, vote(1, central)},
			chkpts: [][2]uint64{{1, 5}},
		},
		{
			name: "a shrink that completes the round commits and releases the owed trigger", participants: 2,
			steps:  []step{propose(5), due(2), vote(1, central), propose(9), exclude(0)},
			chkpts: [][2]uint64{{1, 5}, {2, 9}}, commits: 1, open: true,
		},
		{
			name: "an exclusion after the site voted leaves the round open and the trigger owed", participants: 3,
			steps:  []step{propose(5), due(2), vote(1, 0), vote(1, central), exclude(0)},
			chkpts: [][2]uint64{{1, 5}}, open: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var proposal uint64
			c, sent, committed := directCoord(tc.participants)
			c.Propose = func() vclock.VC { return vclock.VC{proposal} }
			for _, s := range tc.steps {
				s(c, &proposal)
			}
			var chkpts [][2]uint64
			for _, e := range *sent {
				if e.Type == event.TypeChkpt {
					chkpts = append(chkpts, [2]uint64{e.Seq, e.VT[0]})
				}
			}
			if fmt.Sprint(chkpts) != fmt.Sprint(tc.chkpts) {
				t.Errorf("CHKPTs {round proposal} = %v, want %v", chkpts, tc.chkpts)
			}
			if len(*committed) != tc.commits {
				t.Errorf("commits = %d, want %d", len(*committed), tc.commits)
			}
			if open := c.open(); open != tc.open {
				t.Errorf("round open = %v, want %v", open, tc.open)
			}
			if c.owed && !c.open() {
				t.Error("a trigger is owed to a closed round")
			}
		})
	}
}

// TestOwedHookReceivesReleasedTrigger: with Owed set, a closing round
// hands its owed trigger to the driver instead of starting a round on
// the closing caller's goroutine.
func TestOwedHookReceivesReleasedTrigger(t *testing.T) {
	c, sent, _ := directCoord(1)
	owed := 0
	c.Owed = func() { owed++ }
	c.Due()
	c.Due()
	reply(c, 1, central, 4)
	if owed != 1 {
		t.Fatalf("Owed called %d times, want 1", owed)
	}
	if len(*sent) != 2 { // CHKPT 1 and its COMMIT
		t.Fatalf("broadcasts = %d, want 2 (no round started inline)", len(*sent))
	}
	if !c.Due() {
		t.Fatal("the handed-back trigger did not start a round")
	}
}

// TestDetectExcludesSilentMirror: with a detector, a live mirror that
// lets more than the budget of ticks pass without replying is excluded
// by the tick that exceeds it. The round that waited only for it
// commits first, the hook runs next, and only then does the tick's
// heartbeat CHKPT go out. Without a detector nothing is excluded.
func TestDetectExcludesSilentMirror(t *testing.T) {
	c, _, committed := directCoord(3)
	var log []string
	c.Broadcast = func(e *event.Event) { log = append(log, fmt.Sprintf("%v %d", e.Type, e.Seq)) }
	c.Detect(2, func(site int) { log = append(log, fmt.Sprintf("exclude %d", site)) })
	c.Tick()
	reply(c, 1, central, 5)
	reply(c, 1, 0, 5) // mirror 0 answers every round; mirror 1 never does
	c.Tick()
	reply(c, 2, central, 6)
	reply(c, 2, 0, 6)
	if !c.Alive(1) {
		t.Fatal("mirror 1 excluded within its budget")
	}
	log = nil
	if got := c.Tick(); fmt.Sprint(got) != "[1]" { // mirror 1's third missed tick
		t.Fatalf("Tick excluded %v, want [1]", got)
	}
	want := fmt.Sprint([]string{
		fmt.Sprintf("%v 2", event.TypeCommit), "exclude 1", fmt.Sprintf("%v 3", event.TypeChkpt),
	})
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("broadcasts and hooks = %s, want %s", got, want)
	}
	if c.Alive(1) || !c.Alive(0) {
		t.Fatalf("Alive(0), Alive(1) = %v, %v; want true, false", c.Alive(0), c.Alive(1))
	}
	if len(*committed) != 1 || (*committed)[0].Compare(vclock.VC{6}) != vclock.Equal {
		t.Fatalf("committed = %v, want [<6>]", *committed)
	}
	reply(c, 3, central, 7)
	reply(c, 3, 0, 7)
	if len(*committed) != 2 {
		t.Fatalf("round 3 did not commit without the excluded mirror: %v", *committed)
	}

	silent, _, _ := directCoord(2)
	for i := 0; i < 20; i++ {
		silent.Tick()
	}
	if !silent.Alive(0) {
		t.Fatal("a coordinator without a detector excluded a mirror")
	}
}

// tickRig is a coordinator over a real central backup queue and
// mutation journal, the way the core central wires one, whose
// broadcasts, commits and exclusions are logged in order. The central
// main unit votes each CHKPT's proposal at once; mirror votes are cast
// by hand.
type tickRig struct {
	c      *Coordinator
	backup *queue.Backup
	state  *ede.State
	log    []string
	seq    uint64
}

func newTickRig(participants, budget int) *tickRig {
	r := &tickRig{backup: queue.NewBackup(), state: ede.NewStateSharded(0, 1)}
	r.state.EnableJournal(0, nil)
	r.c = &Coordinator{
		Propose: func() vclock.VC { return proposal(r.backup) },
		Broadcast: func(e *event.Event) {
			r.log = append(r.log, fmt.Sprintf("%v %d %v", e.Type, e.Seq, e.VT))
			if e.Type == event.TypeChkpt {
				reply(r.c, e.Seq, central, e.VT.Sum())
			}
		},
		OnCommit: func(cut vclock.VC) {
			r.backup.Commit(cut)
			r.state.SealCut(cut)
		},
		Participants: participants,
	}
	if budget > 0 {
		r.c.Detect(budget, func(site int) { r.log = append(r.log, fmt.Sprintf("exclude %d", site)) })
	}
	return r
}

// TestTick pins the coordinator's one time input: the heartbeat rule
// (a tick starts a round when none started since the previous tick,
// abandoning an open one) and the failure detector (one miss per tick
// against every live mirror, reset by a reply and by Admit, the
// exclusion hook before the tick's CHKPT, exactly the slots past the
// budget returned).
func TestTick(t *testing.T) {
	type step func(t *testing.T, r *tickRig)
	tick := func(excluded ...int) step {
		return func(t *testing.T, r *tickRig) {
			if got := r.c.Tick(); fmt.Sprint(got) != fmt.Sprint(excluded) {
				t.Fatalf("Tick excluded %v, want %v", got, excluded)
			}
		}
	}
	initRound := func(t *testing.T, r *tickRig) { r.c.Init() }
	due := func(t *testing.T, r *tickRig) { r.c.Due() }
	vote := func(round uint64, site uint8, ts uint64) step {
		return func(t *testing.T, r *tickRig) { reply(r.c, round, site, ts) }
	}
	admit := func(site int) step { return func(t *testing.T, r *tickRig) { r.c.Admit(site) } }
	feed := func(n uint64) step {
		return func(t *testing.T, r *tickRig) {
			for ; n > 0; n-- {
				r.seq++
				r.backup.Append(&event.Event{Type: event.TypeFAAPosition, Seq: r.seq, Coalesced: 1, VT: vclock.VC{r.seq}})
			}
		}
	}
	mark := func(t *testing.T, r *tickRig) { r.log = append(r.log, "|") }
	chkpt := func(round, cut uint64) string { return fmt.Sprintf("%v %d <%d>", event.TypeChkpt, round, cut) }
	commit := func(round, cut uint64) string { return fmt.Sprintf("%v %d <%d>", event.TypeCommit, round, cut) }

	cases := []struct {
		name         string
		participants int
		budget       int
		steps        []step
		log          []string
		// seals and cut, when cut is set, are the journal's sealed cuts
		// and the backup's committed cut at the end.
		seals int
		cut   vclock.VC
	}{
		{
			name: "an idle coordinator heartbeats on every tick", participants: 1,
			steps: []step{tick(), tick(), tick()},
			log:   []string{chkpt(1, 0), commit(1, 0), chkpt(2, 0), commit(2, 0), chkpt(3, 0), commit(3, 0)},
		},
		{
			name: "a triggered round suppresses the next heartbeat only", participants: 1,
			steps: []step{feed(2), due, mark, tick(), mark, tick()},
			log:   []string{chkpt(1, 2), commit(1, 2), "|", "|", chkpt(2, 2), commit(2, 2)},
		},
		{
			name: "an explicit round counts for the interval too", participants: 1,
			steps: []step{tick(), initRound, mark, tick(), mark, tick()},
			log:   []string{chkpt(1, 0), commit(1, 0), chkpt(2, 0), commit(2, 0), "|", "|", chkpt(3, 0), commit(3, 0)},
		},
		{
			name: "a stuck round is abandoned by the second tick", participants: 2,
			steps: []step{feed(3), due, tick(), mark, tick(), vote(1, 0, 3), mark, vote(2, 0, 3)},
			log:   []string{chkpt(1, 3), "|", chkpt(2, 3), "|", commit(2, 3)},
		},
		{
			name: "one miss per tick, reset by a reply and by Admit", participants: 3, budget: 2,
			steps: []step{
				tick(), vote(1, 0, 0), tick(), vote(2, 0, 0), mark,
				tick(1), // mirror 1: three ticks without a reply; mirror 0: one
				mark, admit(1), vote(3, 0, 0), tick(), vote(4, 1, 0), tick(), mark,
				tick(0), // mirror 0's third silent tick; mirror 1 replied after its Admit
			},
			log: []string{
				chkpt(1, 0), chkpt(2, 0), "|",
				commit(2, 0), "exclude 1", chkpt(3, 0), "|",
				commit(3, 0), chkpt(4, 0), chkpt(5, 0), "|",
				"exclude 0", chkpt(6, 0),
			},
		},
		{
			name: "the exclusion hook runs before the tick's CHKPT", participants: 2, budget: 1,
			steps: []step{feed(4), tick(), mark, tick(0)},
			log:   []string{chkpt(1, 4), "|", commit(1, 4), "exclude 0", chkpt(2, 4), commit(2, 4)},
		},
		{
			name: "exactly the slots past the budget are returned", participants: 4, budget: 1,
			steps: []step{tick(), vote(1, 1, 0), mark, tick(0, 2)},
			log:   []string{chkpt(1, 0), "|", "exclude 0", commit(1, 0), "exclude 2", chkpt(2, 0)},
		},
		{
			name: "a heartbeat over an unchanged cut moves no cut and adds no seal", participants: 1,
			steps: []step{feed(5), initRound, mark, tick(), tick(), tick()},
			log:   []string{chkpt(1, 5), commit(1, 5), "|", chkpt(2, 5), commit(2, 5), chkpt(3, 5), commit(3, 5)},
			seals: 1, cut: vclock.VC{5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTickRig(tc.participants, tc.budget)
			for _, s := range tc.steps {
				s(t, r)
			}
			if got, want := fmt.Sprint(r.log), fmt.Sprint(tc.log); got != want {
				t.Errorf("log = %s\nwant  %s", got, want)
			}
			if tc.cut == nil {
				return
			}
			trimmed, _ := r.backup.Trimmed()
			if seals, _ := r.state.JournalSeals(); seals != tc.seals || trimmed != r.seq || r.backup.Len() != 0 {
				t.Errorf("seals %d, trimmed %d, retained %d; want %d, %d, 0", seals, trimmed, r.backup.Len(), tc.seals, r.seq)
			}
			if got := r.backup.Committed(); got.Compare(tc.cut) != vclock.Equal {
				t.Errorf("committed cut = %v, want %v", got, tc.cut)
			}
		})
	}
}

// TestInitRoundAllocs pins the allocation budget of one checkpoint
// round — Coordinator.Init with two mirrors and the central main unit
// answering over direct calls, through to the commit — at 29, and holds
// a heartbeat round (Tick with a detector counting misses) to the same
// budget.
func TestInitRoundAllocs(t *testing.T) {
	progress := vclock.VC{7, 3}
	last := func() vclock.VC { return progress }
	var coord *Coordinator
	var mirrors []*Mirror
	for i := 0; i < 2; i++ {
		site := uint8(i)
		m := &Mirror{Commit: func(vclock.VC) {}}
		part := &Main{LastProcessed: last, Reply: func(e *event.Event) { m.OnControl(e) }}
		m.ToMain = part.OnControl
		m.ToCentral = func(e *event.Event) {
			e.Stream = site
			coord.OnReply(e)
		}
		mirrors = append(mirrors, m)
	}
	central := &Main{LastProcessed: last, Reply: func(e *event.Event) {
		e.Stream = CentralParticipant
		coord.OnReply(e)
	}}
	commits := 0
	coord = &Coordinator{
		Propose: last,
		Broadcast: func(e *event.Event) {
			for _, m := range mirrors {
				m.OnControl(e.Clone())
			}
			central.OnControl(e.Clone())
		},
		OnCommit:     func(vclock.VC) { commits++ },
		Participants: len(mirrors) + 1,
	}
	if n := testing.AllocsPerRun(100, func() { coord.Init() }); n > 29 {
		t.Fatalf("one round allocates %v times, budget 29", n)
	}
	if commits != 101 {
		t.Fatalf("%d rounds committed, want every one of 101", commits)
	}
	coord.Detect(8, nil)
	coord.Tick() // the tick after Init's interval starts no round
	if n := testing.AllocsPerRun(100, func() { coord.Tick() }); n > 29 {
		t.Fatalf("one heartbeat round allocates %v times, budget 29", n)
	}
	if commits != 202 {
		t.Fatalf("%d rounds committed, want 101 more heartbeats", commits)
	}
}
