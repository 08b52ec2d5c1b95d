// Package echo provides the event-channel communication substrate the
// mirroring framework is written against, modeled on the ECho event
// middleware the paper uses (Section 3.3): named logical event
// channels connecting sources, mirrors, and clients, with separate
// 'data' and 'control' channels per link, local fan-out delivery, and
// a TCP transport for deployment across real machines. Derived
// channels apply a filter predicate at the channel level, supporting
// content-based filtering of mirrored events.
package echo

import (
	"errors"
	"sync"
	"sync/atomic"

	"adaptmirror/internal/event"
)

// ErrClosed is returned when submitting to a closed channel.
var ErrClosed = errors.New("echo: channel closed")

// Handler consumes events delivered on a channel. Handlers of one
// subscription are invoked sequentially in submission order; distinct
// subscriptions run concurrently.
type Handler func(*event.Event)

// BatchHandler consumes owned batches (LocalChannel.SubmitOwned). With
// a non-nil ref the events are pooled views borrowing from slabs it
// guards, and the slice and views are valid only for the duration of
// the call: a handler keeping any view longer must ref.Retain() before
// returning and ref.Release() once done. With a nil ref the events are
// heap-owned; only the slice is lent.
type BatchHandler func(events []*event.Event, ref event.Ref)

// Channel is a logical event channel: submitted events are delivered
// to every subscriber.
type Channel interface {
	// Name identifies the channel (unique within a Bus).
	Name() string
	// Submit delivers e to all current subscribers. The event must not
	// be mutated after submission.
	Submit(e *event.Event) error
	// Subscribe registers h; delivery begins with the next Submit.
	Subscribe(h Handler) (*Subscription, error)
	// Close tears the channel down; pending events are still delivered.
	Close() error
}

// Stats counts traffic through a channel.
type Stats struct {
	Submitted uint64 // events submitted
	Delivered uint64 // event deliveries (submissions × subscribers)
	Bytes     uint64 // payload bytes submitted
}

// LocalChannel is an in-process channel. Each subscription owns a
// dispatch goroutine fed by an unbounded queue, so a slow subscriber
// delays only itself — matching ECho's per-subscriber delivery.
type LocalChannel struct {
	name string

	mu     sync.Mutex
	subs   []*Subscription
	closed bool

	submitted atomic.Uint64
	delivered atomic.Uint64
	bytes     atomic.Uint64
}

// NewLocal creates a standalone local channel (not attached to a Bus).
func NewLocal(name string) *LocalChannel {
	return &LocalChannel{name: name}
}

// Name implements Channel.
func (c *LocalChannel) Name() string { return c.name }

// Submit implements Channel.
func (c *LocalChannel) Submit(e *event.Event) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	subs := c.subs
	c.mu.Unlock()

	c.submitted.Add(1)
	c.bytes.Add(uint64(len(e.Payload)))
	for _, s := range subs {
		if s.deliver(e) {
			c.delivered.Add(1)
		}
	}
	return nil
}

// SubmitOwned delivers a whole batch to all current subscribers with
// one channel-lock acquisition and one queue append per subscriber
// (core.DataSender). With a non-nil ref the events are pooled views
// guarded by it and no payload is copied: each batch-aware subscriber
// receives them through its BatchHandler under the borrow-during-call
// contract. A plain Handler may keep events indefinitely, so
// plain-handler subscribers receive heap copies, one event at a time.
// With a nil ref the events are heap-owned and delivered as they are.
// The caller's own reference is untouched; the passed slice is never
// retained.
func (c *LocalChannel) SubmitOwned(events []*event.Event, ref event.Ref) error {
	if len(events) == 0 {
		return nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	subs := c.subs
	c.mu.Unlock()

	c.submitted.Add(uint64(len(events)))
	var bytes uint64
	for _, e := range events {
		bytes += uint64(len(e.Payload))
	}
	c.bytes.Add(bytes)
	for _, s := range subs {
		if n := s.deliverOwned(events, ref); n > 0 {
			c.delivered.Add(uint64(n))
		}
	}
	return nil
}

// Subscribe implements Channel.
func (c *LocalChannel) Subscribe(h Handler) (*Subscription, error) {
	return c.subscribe(h, nil)
}

// SubscribeBatch registers a subscriber that receives owned batches
// (SubmitOwned) through bh and everything else through h. Both
// callbacks run on the subscription's dispatch goroutine, sequentially
// in submission order.
func (c *LocalChannel) SubscribeBatch(h Handler, bh BatchHandler) (*Subscription, error) {
	return c.subscribe(h, bh)
}

func (c *LocalChannel) subscribe(h Handler, bh BatchHandler) (*Subscription, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	s := newSubscription(c, h, bh)
	c.subs = append(c.subs, s)
	return s, nil
}

// Close implements Channel. Events already queued to subscribers are
// still delivered; subsequent Submits fail with ErrClosed.
func (c *LocalChannel) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	for _, s := range subs {
		s.stop()
	}
	return nil
}

// Stats returns a snapshot of the channel's traffic counters.
func (c *LocalChannel) Stats() Stats {
	return Stats{
		Submitted: c.submitted.Load(),
		Delivered: c.delivered.Load(),
		Bytes:     c.bytes.Load(),
	}
}

// Subscribers returns the current number of subscriptions.
func (c *LocalChannel) Subscribers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

func (c *LocalChannel) unsubscribe(target *Subscription) {
	c.mu.Lock()
	for i, s := range c.subs {
		if s == target {
			c.subs = append(c.subs[:i], c.subs[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	target.stop()
}

// subItem is one unit of a subscription's dispatch queue: a single
// event, or an owned batch (slice copy plus one retained reference).
type subItem struct {
	e     *event.Event
	batch []*event.Event
	ref   event.Ref
}

// Subscription is one subscriber's attachment to a channel.
type Subscription struct {
	ch      *LocalChannel
	handler Handler
	bh      BatchHandler // nil for plain subscribers

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []subItem
	pending int // events queued, across all items
	stopped bool
	done    chan struct{}
}

func newSubscription(c *LocalChannel, h Handler, bh BatchHandler) *Subscription {
	s := &Subscription{ch: c, handler: h, bh: bh, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

func (s *Subscription) deliver(e *event.Event) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	s.queue = append(s.queue, subItem{e: e})
	s.pending++
	s.cond.Signal()
	s.mu.Unlock()
	return true
}

// deliverOwned queues an owned batch and returns the number of events
// accepted (0 when stopped). A batch-aware subscriber gets a copy of
// the slice (the caller only lends it) plus one reference taken on its
// behalf, given back after its handler returns; a plain one gets each
// event on its own, cloned off the slab when there is one.
func (s *Subscription) deliverOwned(events []*event.Event, ref event.Ref) int {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return 0
	}
	if s.bh == nil {
		for _, e := range events {
			if ref != nil {
				e = e.Clone()
			}
			s.queue = append(s.queue, subItem{e: e})
		}
	} else {
		if ref != nil {
			ref.Retain()
		}
		s.queue = append(s.queue, subItem{batch: append([]*event.Event(nil), events...), ref: ref})
	}
	s.pending += len(events)
	s.cond.Signal()
	s.mu.Unlock()
	return len(events)
}

func (s *Subscription) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.stopped {
			s.mu.Unlock()
			return
		}
		items := s.queue
		s.queue = nil
		s.mu.Unlock()
		for i := range items {
			it := &items[i]
			if it.batch == nil {
				s.handler(it.e)
				s.drained(1)
			} else {
				s.bh(it.batch, it.ref)
				if it.ref != nil {
					it.ref.Release()
				}
				s.drained(len(it.batch))
			}
			*it = subItem{}
		}
	}
}

func (s *Subscription) drained(n int) {
	s.mu.Lock()
	s.pending -= n
	s.mu.Unlock()
}

func (s *Subscription) stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// Cancel detaches the subscription and waits for its dispatcher to
// drain queued events.
func (s *Subscription) Cancel() { s.ch.unsubscribe(s) }

// Pending returns the number of undelivered events queued to this
// subscriber.
func (s *Subscription) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Derive creates a new channel fed by src through filter: events for
// which filter returns true are re-submitted on the derived channel.
// This is ECho's derived-event-channel mechanism, used for
// content-based filtering of mirror traffic. Closing the derived
// channel cancels the feeding subscription.
func Derive(src Channel, name string, filter func(*event.Event) bool) (*DerivedChannel, error) {
	d := &DerivedChannel{LocalChannel: NewLocal(name)}
	sub, err := src.Subscribe(func(e *event.Event) {
		if filter(e) {
			_ = d.LocalChannel.Submit(e)
		}
	})
	if err != nil {
		return nil, err
	}
	d.src = sub
	return d, nil
}

// DerivedChannel is a filtered view of another channel.
type DerivedChannel struct {
	*LocalChannel
	src *Subscription
}

// Close detaches from the source channel and closes the derived
// channel.
func (d *DerivedChannel) Close() error {
	d.src.Cancel()
	return d.LocalChannel.Close()
}
