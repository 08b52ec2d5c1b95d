package core

import (
	"sync"
	"sync/atomic"

	"adaptmirror/internal/event"
)

// DataSender is the one contract a mirror data link implements: a run
// of events handed over as a single owned batch. When ref is non-nil
// the events are pooled views borrowing from slabs it guards; the
// views and the slice are valid only for the duration of the call, so
// a receiver keeping any view longer must ref.Retain() before
// returning and ref.Release() once done. Transports that merely encode
// (echo.SendLink) need neither. A nil ref means the events are
// heap-owned (recovery blocks, test doubles): the receiver may keep
// them indefinitely, but still never the slice.
type DataSender interface {
	SubmitOwned(events []*event.Event, ref event.Ref) error
}

// groupRef aggregates several slab releases behind one event.Ref, for
// drained outbox batches that merged events from more than one
// producer batch. It is pooled: the final Release fires every
// underlying release and returns the ref to the pool.
type groupRef struct {
	refs atomic.Int32
	rels []event.Ref
}

var groupRefPool = sync.Pool{New: func() any { return &groupRef{} }}

// newGroupRef returns a ref holding the given releases with one
// reference owned by the caller. The rels slice is copied.
func newGroupRef(rels []event.Ref) *groupRef {
	g := groupRefPool.Get().(*groupRef)
	g.refs.Store(1)
	g.rels = append(g.rels[:0], rels...)
	return g
}

func (g *groupRef) Retain() { g.refs.Add(1) }

func (g *groupRef) Release() {
	switch n := g.refs.Add(-1); {
	case n > 0:
	case n == 0:
		fireAll(g.rels)
		clear(g.rels)
		g.rels = g.rels[:0]
		groupRefPool.Put(g)
	default:
		panic("core: group ref released more times than retained")
	}
}
