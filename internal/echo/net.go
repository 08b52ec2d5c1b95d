package echo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/event"
)

// The TCP transport exports a Bus's channels to other machines. Links
// are directional: a send link pushes events into a remote channel, a
// recv link subscribes to one. Bidirectional control traffic uses a
// pair of directional channels (e.g. "ctrl.up"/"ctrl.down"), which
// avoids loopback of a site's own submissions.
//
// Handshake (client → server): 1 mode byte ('S' send, 'R' recv),
// uint16 name length, name bytes. Then framed events flow in the
// link's direction until either side closes.

// Link modes.
const (
	modeSend = 'S'
	modeRecv = 'R'
)

const maxChannelName = 255

// Server exports a Bus over a net.Listener.
type Server struct {
	bus *Bus

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a Server exporting bus.
func NewServer(bus *Bus) *Server {
	return &Server{bus: bus, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until Close. It blocks; run it in a
// goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("echo: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves; it returns the bound
// address on a channel-free API by returning after listen fails, so
// most callers use Listen + Serve directly. Provided for cmd tools.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) handle(conn net.Conn) {
	defer s.dropConn(conn)
	mode, name, err := readHandshake(conn)
	if err != nil {
		return
	}
	ch, err := s.bus.Open(name)
	if err != nil {
		return
	}
	switch mode {
	case modeSend:
		// ReadFrame discriminates the columnar batch frames of data
		// links from the per-event frames of control and client links,
		// so every link class shares one connection format. Batch
		// frames decode into pooled slab views published zero-copy; the
		// server's reference is dropped as soon as the channel has
		// taken its own.
		r := event.NewReader(conn)
		for {
			e, b, err := r.ReadFrame()
			if err != nil {
				return
			}
			if b != nil {
				err = ch.SubmitOwned(b.Events, b)
				b.Release()
				if err != nil {
					return
				}
				continue
			}
			if ch.Submit(e) != nil {
				return
			}
		}
	case modeRecv:
		w := event.NewWriter(conn)
		var failed atomic.Bool
		var sub *Subscription
		sub, err := ch.Subscribe(func(e *event.Event) {
			if failed.Load() {
				return
			}
			if err := w.WriteEvent(e); err != nil {
				failed.Store(true)
				conn.Close()
				return
			}
			if err := w.Flush(); err != nil {
				failed.Store(true)
				conn.Close()
			}
		})
		if err != nil {
			return
		}
		// Block until the peer disconnects (or Close tears the conn
		// down), then detach the subscription.
		io.Copy(io.Discard, conn)
		failed.Store(true)
		sub.Cancel()
	}
}

// Close stops accepting, closes all live connections, and waits for
// connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func writeHandshake(conn net.Conn, mode byte, name string) error {
	if len(name) > maxChannelName {
		return fmt.Errorf("echo: channel name too long (%d bytes)", len(name))
	}
	buf := make([]byte, 0, 3+len(name))
	buf = append(buf, mode)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	_, err := conn.Write(buf)
	return err
}

func readHandshake(conn net.Conn) (mode byte, name string, err error) {
	var hdr [3]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, "", err
	}
	mode = hdr[0]
	if mode != modeSend && mode != modeRecv {
		return 0, "", fmt.Errorf("echo: bad handshake mode %q", mode)
	}
	n := int(binary.LittleEndian.Uint16(hdr[1:]))
	if n > maxChannelName {
		return 0, "", fmt.Errorf("echo: channel name too long (%d bytes)", n)
	}
	nameBuf := make([]byte, n)
	if _, err := io.ReadFull(conn, nameBuf); err != nil {
		return 0, "", err
	}
	return mode, string(nameBuf), nil
}

// SendLink pushes events into a remote channel. Safe for concurrent
// Submit.
type SendLink struct {
	name string
	conn net.Conn
	mu   sync.Mutex
	w    *event.Writer
	err  error
	// writeTimeout, when positive, bounds every write on the link so a
	// peer that accepts but never reads fails the submit instead of
	// wedging the caller. A deadline error poisons the link like any
	// other write error; the owner redials.
	writeTimeout time.Duration
	// deadline is the write deadline currently armed on conn.
	deadline time.Time

	submitted atomic.Uint64
	bytes     atomic.Uint64
}

// DialSend connects a send link for the named channel at addr.
func DialSend(addr, name string) (*SendLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewSendLink(conn, name)
}

// DialSendTimeout is DialSend with the dial and the handshake write
// bounded by timeout (0 behaves like DialSend). The returned link
// keeps timeout as its per-write bound; adjust with SetWriteTimeout.
func DialSendTimeout(addr, name string, timeout time.Duration) (*SendLink, error) {
	if timeout <= 0 {
		return DialSend(addr, name)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	l, err := NewSendLink(conn, name)
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	l.SetWriteTimeout(timeout)
	return l, nil
}

// SetWriteTimeout bounds every subsequent write on the link (0 removes
// the bound).
func (l *SendLink) SetWriteTimeout(d time.Duration) {
	l.mu.Lock()
	l.writeTimeout = d
	l.deadline = time.Time{}
	l.mu.Unlock()
}

// armDeadlineLocked makes sure a submission starting now is bounded by
// the write timeout. Arming the deadline updates a runtime timer, and a
// data link does it once per frame, so a deadline that still has more
// than half the timeout to run is left alone: a busy link re-arms twice
// per timeout, and a write is cut off after between half of it and all
// of it. Callers hold l.mu.
func (l *SendLink) armDeadlineLocked() {
	if l.writeTimeout <= 0 {
		return
	}
	if now := time.Now(); l.deadline.Sub(now) < l.writeTimeout/2 {
		l.deadline = now.Add(l.writeTimeout)
		l.conn.SetWriteDeadline(l.deadline)
	}
}

// NewSendLink performs the send handshake over an established
// connection (used with custom or shaped transports).
func NewSendLink(conn net.Conn, name string) (*SendLink, error) {
	if err := writeHandshake(conn, modeSend, name); err != nil {
		conn.Close()
		return nil, err
	}
	return &SendLink{name: name, conn: conn, w: event.NewWriter(conn)}, nil
}

// Name returns the remote channel name.
func (l *SendLink) Name() string { return l.name }

// Submit pushes one event in the per-event frame (control and client
// links).
func (l *SendLink) Submit(e *event.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.armDeadlineLocked()
	if err := l.w.WriteEvent(e); err != nil {
		l.err = err
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	l.submitted.Add(1)
	l.bytes.Add(uint64(len(e.Payload)))
	return nil
}

// SubmitOwned pushes a whole batch as one columnar frame (data links,
// core.DataSender): headers packed per column, payloads concatenated
// into a single blob, nothing allocated per event, one buffered write
// and a single flush. The link only encodes the events into its write
// buffer and retains nothing, so the caller's slabs are free for reuse
// the moment the call returns; ref is not touched.
func (l *SendLink) SubmitOwned(events []*event.Event, _ event.Ref) error {
	if len(events) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.armDeadlineLocked()
	if err := l.w.WriteBatchFrame(events); err != nil {
		l.err = err
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	l.submitted.Add(uint64(len(events)))
	var bytes uint64
	for _, e := range events {
		bytes += uint64(len(e.Payload))
	}
	l.bytes.Add(bytes)
	return nil
}

// Stats returns events and payload bytes submitted on the link.
func (l *SendLink) Stats() Stats {
	return Stats{Submitted: l.submitted.Load(), Bytes: l.bytes.Load()}
}

// Close shuts the link down.
func (l *SendLink) Close() error {
	l.mu.Lock()
	if l.err == nil {
		l.err = ErrClosed
	}
	l.mu.Unlock()
	return l.conn.Close()
}

// RecvLink subscribes to a remote channel and dispatches received
// events to local handlers.
type RecvLink struct {
	name string
	conn net.Conn

	mu       sync.Mutex
	handlers []Handler
	err      error
	done     chan struct{}

	received atomic.Uint64
}

// DialRecv connects a recv link for the named channel at addr.
func DialRecv(addr, name string) (*RecvLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewRecvLink(conn, name)
}

// NewRecvLink performs the recv handshake over an established
// connection.
func NewRecvLink(conn net.Conn, name string) (*RecvLink, error) {
	if err := writeHandshake(conn, modeRecv, name); err != nil {
		conn.Close()
		return nil, err
	}
	l := &RecvLink{name: name, conn: conn, done: make(chan struct{})}
	go l.run()
	return l, nil
}

// Name returns the remote channel name.
func (l *RecvLink) Name() string { return l.name }

// Subscribe registers h for events received on the link.
func (l *RecvLink) Subscribe(h Handler) {
	l.mu.Lock()
	l.handlers = append(l.handlers, h)
	l.mu.Unlock()
}

func (l *RecvLink) run() {
	defer close(l.done)
	r := event.NewReader(l.conn)
	for {
		e, err := r.ReadEvent()
		if err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
			return
		}
		l.received.Add(1)
		l.mu.Lock()
		hs := l.handlers
		l.mu.Unlock()
		for _, h := range hs {
			h(e)
		}
	}
}

// Received returns the number of events received so far.
func (l *RecvLink) Received() uint64 { return l.received.Load() }

// Err returns the terminal error of the link (nil while healthy, or
// io.EOF after a clean remote close).
func (l *RecvLink) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close shuts the link down and waits for the dispatch loop to exit.
func (l *RecvLink) Close() error {
	err := l.conn.Close()
	<-l.done
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
