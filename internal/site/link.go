package site

import (
	"net"
	"sync"
	"time"

	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/simnet"
)

// Link dial/write bounds: one unreachable or wedged peer must fail a
// submission in bounded time instead of holding the link mutex (and
// every submitter behind it) forever.
const (
	dialTimeout         = 3 * time.Second
	defaultWriteTimeout = 5 * time.Second
	// rejoinWriteTimeout bounds writes on a central's data downlinks,
	// which carry recovery transfers (snapshots are much larger than
	// control frames).
	rejoinWriteTimeout = 30 * time.Second
)

// LinkOptions tune a Link; the zero value is a plain link.
type LinkOptions struct {
	// Shaping is applied to every connection the link dials.
	Shaping simnet.Profile
	// WriteTimeout bounds each write (0 = 5 s; recovery transfers,
	// much larger than control frames, get more).
	WriteTimeout time.Duration
}

// Link is a self-healing send link to one channel of a peer site: it
// dials on first use and redials after failures. Mirrors use it for the
// control uplink so they can start before the central site exists (the
// documented startup order); the central uses it for its per-mirror
// data and control downlinks so a restarted mirror can be re-admitted
// over the same link. Every dial and write carries a deadline, Repoint
// swings the link to a new peer address (wire takeover: survivors
// redial the promoted central), and after Close every submission fails
// with echo.ErrClosed. It implements core.Sender and core.DataSender.
type Link struct {
	channel string
	opts    LinkOptions

	mu     sync.Mutex
	addr   string
	link   *echo.SendLink
	closed bool
}

// NewLink returns a link to the named channel at addr; nothing is
// dialed until the first submission (or Dial).
func NewLink(addr, channel string, opts LinkOptions) *Link {
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = defaultWriteTimeout
	}
	return &Link{addr: addr, channel: channel, opts: opts}
}

// Dial connects now (a no-op on a connected link), so an unreachable
// address fails at startup rather than on the first event.
func (l *Link) Dial() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ensureLocked()
}

// ensureLocked dials the link if needed. Callers hold l.mu.
func (l *Link) ensureLocked() error {
	if l.closed {
		return echo.ErrClosed
	}
	if l.link != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout)
	if err != nil {
		return err
	}
	// The handshake write is bounded like the dial.
	conn.SetWriteDeadline(time.Now().Add(dialTimeout))
	link, err := echo.NewSendLink(simnet.Shape(conn, l.opts.Shaping), l.channel)
	if err != nil {
		return err
	}
	link.SetWriteTimeout(l.opts.WriteTimeout)
	l.link = link
	return nil
}

// dropLocked closes the current connection, if any. Callers hold l.mu.
func (l *Link) dropLocked() error {
	if l.link == nil {
		return nil
	}
	err := l.link.Close()
	l.link = nil
	return err
}

// Repoint swings the link to a new peer address: the current connection
// (if any) is closed and the next submission dials addr.
func (l *Link) Repoint(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addr = addr
	_ = l.dropLocked() // the old peer is being abandoned
}

// Addr returns the peer address the link currently targets.
func (l *Link) Addr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addr
}

// sentLocked finishes one submission: a failed connection is dropped so
// the next call redials. Callers hold l.mu.
func (l *Link) sentLocked(err error) error {
	if err != nil {
		_ = l.dropLocked() // the submission's error is the one to report
	}
	return err
}

// Submit implements core.Sender (control links).
func (l *Link) Submit(e *event.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensureLocked(); err != nil {
		return err
	}
	return l.sentLocked(l.link.Submit(e))
}

// SubmitOwned implements core.DataSender (data links): the whole batch
// rides one framed write on the underlying echo.SendLink, which only
// encodes the views into its write buffer, so nothing outlives the call
// and the caller's slabs stay reusable.
func (l *Link) SubmitOwned(events []*event.Event, ref event.Ref) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensureLocked(); err != nil {
		return err
	}
	return l.sentLocked(l.link.SubmitOwned(events, ref))
}

// Close shuts the link down for good.
func (l *Link) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return l.dropLocked()
}
