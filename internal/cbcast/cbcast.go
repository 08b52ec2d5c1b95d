// Package cbcast implements a classical causal broadcast (CBCAST)
// replication baseline in the style of Birman, Schiper and Stephenson
// ("Lightweight Causal and Atomic Group Multicast", TOCS 1991) — the
// related work the paper contrasts its approach against: CBCAST
// "strictly relies on message orderings, without incorporating the
// application-level information used for mirroring in our
// infrastructure."
//
// Every group member broadcasts every update stamped with its vector
// clock; receivers delay messages until causal predecessors have been
// delivered, then deliver in causal order. Nothing is filtered,
// coalesced, or overwritten — which is precisely the cost the paper's
// application-level mirroring avoids. The ablation benchmark
// BenchmarkAblationCBCASTBaseline compares the two.
package cbcast

import (
	"errors"
	"fmt"
	"sync"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// ErrClosed is returned after a member or group has shut down.
var ErrClosed = errors.New("cbcast: closed")

// Message is one causally stamped broadcast.
type Message struct {
	// Sender is the originating member's index.
	Sender int
	// VT is the sender's vector clock *after* stamping this message:
	// VT[Sender] is the message's sequence number and the remaining
	// components are the causal dependencies.
	VT vclock.VC
	// Event is the payload.
	Event *event.Event
}

// Deliverable reports whether m can be delivered at a member whose
// current delivery clock is local: the message must be the next from
// its sender (VT[s] == local[s]+1) and must not depend on anything the
// member has not delivered (VT[k] <= local[k] for k != s).
func Deliverable(m Message, local vclock.VC) bool {
	for k := 0; k < len(m.VT); k++ {
		if k == m.Sender {
			if m.VT.At(k) != local.At(k)+1 {
				return false
			}
			continue
		}
		if m.VT.At(k) > local.At(k) {
			return false
		}
	}
	return true
}

// Member is one replica in a causal broadcast group.
type Member struct {
	group *Group
	index int

	mu        sync.Mutex
	sendClock vclock.VC // stamps outgoing broadcasts
	delivered vclock.VC // delivery progress
	pending   []Message // causally premature messages
	closed    bool

	deliver func(Message)
	// outbox holds causally ordered messages awaiting the handler;
	// delivering marks that some receive is draining it.
	outbox     []Message
	delivering bool

	// stats
	deliveredN uint64
	delayedN   uint64
}

// Index returns the member's group index.
func (m *Member) Index() int { return m.index }

// Broadcast stamps e with the member's vector clock and sends it to
// every member (including itself, per CBCAST semantics).
func (m *Member) Broadcast(e *event.Event) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.sendClock = m.sendClock.Tick(m.index)
	msg := Message{Sender: m.index, VT: m.sendClock.Clone(), Event: e}
	m.mu.Unlock()
	return m.group.route(msg)
}

// receive ingests one message, delivering it and any unblocked
// pending messages in causal order.
func (m *Member) receive(msg Message) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.pending = append(m.pending, msg)
	var ready []Message
	for {
		advanced := false
		for i := 0; i < len(m.pending); i++ {
			if Deliverable(m.pending[i], m.delivered) {
				dm := m.pending[i]
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				m.delivered = m.delivered.Merge(dm.VT)
				// Received messages causally after our own sends also
				// advance our send clock's knowledge.
				m.sendClock = m.sendClock.Merge(dm.VT)
				m.deliveredN++
				ready = append(ready, dm)
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	m.delayedN += uint64(len(m.pending))
	if m.deliver == nil {
		m.mu.Unlock()
		return
	}
	// The handler runs outside the lock, so concurrent receives hand
	// their batches to one delivering goroutine at a time: otherwise two
	// callers could interleave their handler calls out of causal order.
	m.outbox = append(m.outbox, ready...)
	if m.delivering {
		m.mu.Unlock()
		return
	}
	m.delivering = true
	for len(m.outbox) > 0 {
		batch := m.outbox
		m.outbox = nil
		m.mu.Unlock()
		for _, dm := range batch {
			m.deliver(dm)
		}
		m.mu.Lock()
	}
	m.delivering = false
	m.mu.Unlock()
}

// Pending returns the number of causally blocked messages.
func (m *Member) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Delivered returns the member's delivery clock.
func (m *Member) Delivered() vclock.VC {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered.Clone()
}

// Stats returns (messages delivered, cumulative pending observations).
func (m *Member) Stats() (delivered, delayed uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deliveredN, m.delayedN
}

// Group is a static causal broadcast group.
type Group struct {
	mu      sync.Mutex
	members []*Member
	// reorder, when non-nil, intercepts routing for fault injection
	// in tests (e.g. delaying or reordering deliveries).
	reorder func(msg Message, deliver func(to int))
	closed  bool

	broadcasts uint64
}

// NewGroup creates a group with n members; deliver[i] (may be nil)
// receives member i's causally ordered deliveries.
func NewGroup(n int, deliver func(member int, msg Message)) (*Group, error) {
	if n <= 0 {
		return nil, errors.New("cbcast: group needs at least one member")
	}
	g := &Group{}
	for i := 0; i < n; i++ {
		i := i
		m := &Member{group: g, index: i}
		if deliver != nil {
			m.deliver = func(msg Message) { deliver(i, msg) }
		}
		g.members = append(g.members, m)
	}
	return g, nil
}

// Member returns member i.
func (g *Group) Member(i int) (*Member, error) {
	if i < 0 || i >= len(g.members) {
		return nil, fmt.Errorf("cbcast: no member %d in group of %d", i, len(g.members))
	}
	return g.members[i], nil
}

// Size returns the group size.
func (g *Group) Size() int { return len(g.members) }

// SetReorder installs a routing interceptor for fault injection: it
// receives each broadcast and a function delivering it to one member.
// nil restores direct routing.
func (g *Group) SetReorder(f func(msg Message, deliver func(to int))) {
	g.mu.Lock()
	g.reorder = f
	g.mu.Unlock()
}

// route fans a broadcast out to every member.
func (g *Group) route(msg Message) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.broadcasts++
	reorder := g.reorder
	members := g.members
	g.mu.Unlock()

	if reorder != nil {
		reorder(msg, func(to int) {
			if to >= 0 && to < len(members) {
				members[to].receive(msg)
			}
		})
		return nil
	}
	for _, m := range members {
		m.receive(msg)
	}
	return nil
}

// Broadcasts returns the number of broadcasts routed.
func (g *Group) Broadcasts() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.broadcasts
}

// Close shuts the group down; subsequent broadcasts fail.
func (g *Group) Close() {
	g.mu.Lock()
	g.closed = true
	members := g.members
	g.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
	}
}
