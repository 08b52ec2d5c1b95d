package core

import (
	"reflect"
	"testing"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/vclock"
)

// TestTakeoverTransitions steps Takeover nodes through every decision
// the deployed runtime and the chaos rig rely on. Each case is a script
// of inputs, each with the exact effects it must produce, and the
// node's status view at the end.
func TestTakeoverTransitions(t *testing.T) {
	cut, later := vclock.VC{7}, vclock.VC{9}
	tick := func(round uint64, cut vclock.VC) TakeoverInput {
		return TakeoverInput{Kind: TakeoverTick, LastRound: round, Cut: cut}
	}
	probed := func(alive bool, round uint64, cut vclock.VC) TakeoverInput {
		return TakeoverInput{Kind: TakeoverProbed, Alive: alive, LastRound: round, Cut: cut}
	}
	announced := func(round uint64, ann TakeoverAnnouncement) TakeoverInput {
		return TakeoverInput{Kind: TakeoverAnnounced, LastRound: round, Ann: ann}
	}
	claimed := func(round uint64, c ElectionClaim) TakeoverInput {
		return TakeoverInput{Kind: TakeoverClaimed, LastRound: round, Cut: cut, Claim: c}
	}
	probe := []TakeoverEffect{{Kind: TakeoverProbe}}
	promote := func(epoch uint64) []TakeoverEffect {
		return []TakeoverEffect{{Kind: TakeoverPromote, Epoch: epoch}, {Kind: TakeoverAnnounce, To: TakeoverAll}}
	}
	claim := func(to int, c ElectionClaim) []TakeoverEffect {
		return []TakeoverEffect{{Kind: TakeoverSendClaim, To: to, Claim: c}}
	}
	follow := func(ann TakeoverAnnouncement, repoint bool) []TakeoverEffect {
		return []TakeoverEffect{{Kind: TakeoverFollow, Ann: ann, Repoint: repoint}}
	}
	annA := TakeoverAnnouncement{Epoch: 1, Addr: "a:1", Anchor: vclock.VC{40}}
	annB := TakeoverAnnouncement{Epoch: 1, Addr: "b:2", Anchor: vclock.VC{40}}
	epoch1Round := checkpoint.EpochBase(1) + 3

	type step struct {
		in   TakeoverInput
		want []TakeoverEffect
	}
	cases := []struct {
		name  string
		node  Takeover
		steps []step
		info  TakeoverInfo
	}{
		{
			name:  "no counting before the first observed round",
			node:  Takeover{Site: 0, Peers: 2, Standby: true, Budget: 1},
			steps: []step{{tick(0, nil), nil}, {tick(0, nil), nil}, {tick(0, nil), nil}, {tick(0, nil), nil}},
			info:  TakeoverInfo{Role: "standby", Budget: 1},
		},
		{
			name: "a standby fires after budget+1 silent ticks and promotes on a dead probe",
			node: Takeover{Site: 0, Peers: 3, Standby: true, Budget: 2},
			steps: []step{
				{tick(5, cut), nil}, // baseline
				{tick(5, cut), nil},
				{tick(5, cut), nil},
				{tick(5, cut), probe},
				{tick(5, cut), nil}, // no second probe while one is out
				{probed(false, 5, cut), promote(1)},
				{tick(5, cut), []TakeoverEffect{{Kind: TakeoverAnnounce, To: TakeoverAll}}},
			},
			info: TakeoverInfo{Role: "promoted", Budget: 2, Missed: 3, Epoch: 1},
		},
		{
			name: "a probe-alive result resets the miss count",
			node: Takeover{Site: 0, Peers: 2, Standby: true, Budget: 1},
			steps: []step{
				{tick(5, cut), nil},
				{tick(5, cut), nil},
				{tick(5, cut), probe},
				{probed(true, 5, cut), nil},
				{tick(5, cut), nil}, // re-baseline
				{tick(5, cut), nil},
				{tick(5, cut), probe},
			},
			info: TakeoverInfo{Role: "standby", Budget: 1, Missed: 2},
		},
		{
			name: "new rounds reset the miss count",
			node: Takeover{Site: 0, Peers: 2, Standby: true, Budget: 1},
			steps: []step{
				{tick(5, cut), nil},
				{tick(5, cut), nil},
				{tick(6, cut), nil},
				{tick(6, cut), nil},
				{tick(7, cut), nil},
			},
			info: TakeoverInfo{Role: "standby", Budget: 1},
		},
		{
			name: "an election is won after 2 ticks",
			node: Takeover{Site: 0, Peers: 3, Budget: 1},
			steps: []step{
				{tick(5, cut), nil},
				{tick(5, cut), nil},
				{tick(5, cut), probe},
				{probed(false, 5, cut), claim(TakeoverAll, ElectionClaim{Epoch: 1, Site: 0, Cut: cut})},
				// An equal cut from a higher site ID loses the tie-break.
				{claimed(5, ElectionClaim{Epoch: 1, Site: 1, Cut: cut}), claim(1, ElectionClaim{Epoch: 1, Site: 0, Cut: cut})},
				{tick(5, cut), nil},
				{tick(5, cut), promote(1)},
			},
			info: TakeoverInfo{Role: "promoted", Budget: 1, Missed: 2, Epoch: 1},
		},
		{
			name: "a loser defers, then re-opens with rivals cleared after budget+3 ticks",
			node: Takeover{Site: 1, Peers: 3, Budget: 1},
			steps: []step{
				{tick(5, cut), nil},
				{tick(5, cut), nil},
				{tick(5, cut), probe},
				{probed(false, 5, cut), claim(TakeoverAll, ElectionClaim{Epoch: 1, Site: 1, Cut: cut})},
				{claimed(5, ElectionClaim{Epoch: 1, Site: 0, Cut: cut}), claim(0, ElectionClaim{Epoch: 1, Site: 1, Cut: cut})},
				{tick(5, cut), nil},
				{tick(5, cut), nil}, // site 0 wins: defer
				{tick(5, later), nil},
				{tick(5, later), nil},
				{tick(5, later), nil},
				{tick(5, later), claim(TakeoverAll, ElectionClaim{Epoch: 1, Site: 1, Cut: later})},
				{tick(5, later), nil},
				{tick(5, later), promote(1)}, // the silent winner was forgotten
			},
			info: TakeoverInfo{Role: "promoted", Budget: 1, Missed: 2, Epoch: 1},
		},
		{
			name: "a candidacy aborts when rounds resume in the old epoch",
			node: Takeover{Site: 1, Peers: 3, Budget: 1},
			steps: []step{
				{tick(5, cut), nil},
				{tick(5, cut), nil},
				{tick(5, cut), probe},
				{probed(false, 5, cut), claim(TakeoverAll, ElectionClaim{Epoch: 1, Site: 1, Cut: cut})},
				{tick(6, cut), nil},
				{tick(6, cut), nil}, // re-armed: baseline against the live central
			},
			info: TakeoverInfo{Role: "follower", Budget: 1},
		},
		{
			name: "split-brain fencing",
			node: Takeover{Site: 2, Peers: 3, Budget: 1},
			steps: []step{
				{announced(5, annA), follow(annA, true)},
				{announced(5, annB), nil},                 // same epoch, other address: rejected
				{announced(5, annA), follow(annA, false)}, // retry: re-send the rejoin request
				{announced(5, TakeoverAnnouncement{Epoch: 0, Addr: "a:1"}), nil},
				{announced(epoch1Round, TakeoverAnnouncement{Epoch: 2, Addr: "c:3"}), follow(TakeoverAnnouncement{Epoch: 2, Addr: "c:3"}, true)},
				{announced(epoch1Round, annA), nil}, // stale epoch
			},
			info: TakeoverInfo{Role: "follower", Budget: 1, Epoch: 2},
		},
		{
			name: "an announcement at or below the rounds' epoch is stale",
			node: Takeover{Site: 2, Peers: 3, Budget: 1},
			steps: []step{
				{announced(epoch1Round, annA), nil},
			},
			info: TakeoverInfo{Role: "follower", Budget: 1},
		},
		{
			name: "a promoted node answers a late claim with its announcement",
			node: Takeover{Site: 0, Peers: 3, Standby: true, Budget: 1},
			steps: []step{
				{tick(5, cut), nil},
				{tick(5, cut), nil},
				{tick(5, cut), probe},
				{probed(false, 5, cut), promote(1)},
				{claimed(5, ElectionClaim{Epoch: 1, Site: 2}), []TakeoverEffect{{Kind: TakeoverAnnounce, To: 2}}},
				{claimed(5, ElectionClaim{Epoch: 2, Site: 2}), nil}, // not an epoch this node runs
				{claimed(5, ElectionClaim{Epoch: 1, Site: 7}), nil}, // outside the manifest
				{announced(5, TakeoverAnnouncement{Epoch: 2, Addr: "x:1"}), nil},
			},
			info: TakeoverInfo{Role: "promoted", Budget: 1, Missed: 2, Epoch: 1},
		},
		{
			name: "claim replies are throttled",
			node: Takeover{Site: 0, Peers: 3, Budget: 8},
			steps: []step{
				{claimed(5, ElectionClaim{Epoch: 1, Site: 1}), claim(1, ElectionClaim{Epoch: 1, Site: 0, Cut: cut})},
				{claimed(5, ElectionClaim{Epoch: 1, Site: 2}), nil}, // one reply per epoch per tick
				{claimed(5, ElectionClaim{Epoch: 2, Site: 2}), claim(2, ElectionClaim{Epoch: 2, Site: 0, Cut: cut})},
				{tick(5, cut), nil},
				{claimed(5, ElectionClaim{Epoch: 1, Site: 2}), claim(2, ElectionClaim{Epoch: 1, Site: 0, Cut: cut})},
				{claimed(5, ElectionClaim{Epoch: 1, Site: 0}), nil},           // its own claim echoed back
				{claimed(epoch1Round, ElectionClaim{Epoch: 1, Site: 1}), nil}, // epoch already running
			},
			info: TakeoverInfo{Role: "follower", Budget: 8},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node := tc.node
			for i, s := range tc.steps {
				if got := node.Step(s.in); !reflect.DeepEqual(got, s.want) {
					t.Fatalf("step %d (%+v):\n  got  %+v\n  want %+v", i, s.in, got, s.want)
				}
			}
			if got := node.Info(); got != tc.info {
				t.Fatalf("Info = %+v, want %+v", got, tc.info)
			}
		})
	}
}
