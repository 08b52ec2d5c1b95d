package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// tickPeriod is the open-loop schedule's grain: one burst per 1 ms
// tick. Every event of a tick is due at the tick's scheduled instant
// and every latency is timed from that instant, never from the moment
// the generator got round to sending.
const tickPeriod = time.Millisecond

// sleeper is a precise sleep for one goroutine: a Linux timerfd read
// through the runtime's network poller. time.Sleep is no use at this
// grain — an otherwise idle Go runtime parks in epoll_wait, whose
// timeout is whole milliseconds, so a 1 ms schedule paced by it runs a
// uniform 0..1.1 ms late (median 0.55 ms measured here) and every
// latency timed from a due instant would be mostly that. A timerfd
// expiry wakes the same epoll_wait at once (median 0.05 ms late).
// Blocking the thread in nanosleep is as precise but leaves its P in a
// syscall for the runtime to take back every time, which cost 40 % more
// process CPU on stream_steady. Where no timerfd can be had, sleep
// falls back to time.Sleep.
type sleeper struct {
	fd uintptr // f's descriptor; File.Fd would switch it to blocking mode
	f  *os.File
}

type itimerspec struct{ interval, value syscall.Timespec }

func newSleeper() *sleeper {
	const (
		clockMonotonic = 1
		nonblock       = 0x800 // TFD_NONBLOCK: lets the file join the poller
		cloexec        = 0x80000
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock|cloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// sleep blocks the calling goroutine for d.
func (s *sleeper) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.f != nil {
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno == 0 {
			var expirations [8]byte
			if _, err := s.f.Read(expirations[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(d)
}

func (s *sleeper) close() {
	if s.f != nil {
		_ = s.f.Close() // a timer holds nothing to flush
	}
}

// pacer hands out the ticks of a fixed schedule. It never skips one:
// after a stall every missed tick is still returned, carrying its own
// due time, so the wait a stall imposes on later events is counted.
type pacer struct {
	start  time.Time
	period time.Duration
	next   int       // first tick not yet handed out
	woke   time.Time // when wait last returned
}

// due is tick k's scheduled instant.
func (p *pacer) due(k int) time.Time {
	return p.start.Add(time.Duration(k) * p.period)
}

// pending hands out the next tick if it is due at now. One tick per
// call: together with wait's minimum gap that is what bounds how fast a
// backlog of overdue ticks is released.
func (p *pacer) pending(now time.Time) (k int, ok bool) {
	if now.Before(p.due(p.next)) {
		return 0, false
	}
	p.next++
	return p.next - 1, true
}

// catchUpFactor is how much faster than the schedule an open-loop
// feeder may release the backlog a stall left it. Central.Ingest is
// not back-pressured by the mirrors, so after a host stall of a few
// hundred ms an unbounded catch-up would dump the whole backlog into
// the link outboxes (8192 events deep) faster than any sender drains
// them, and the benchmark itself would make the cluster shed events.
// Four times the rate stays below saturation; the late events keep
// their own due times, so the stall is still charged to them.
const catchUpFactor = 4

// wait sleeps until the next tick is due, and at least a
// catchUpFactor-th of a period since it last returned. It never spins.
func (p *pacer) wait(s *sleeper) {
	d := time.Until(p.due(p.next))
	if gap := p.period/catchUpFactor - time.Since(p.woke); d < gap {
		d = gap
	}
	s.sleep(d)
	p.woke = time.Now()
}

// eventsInTick is how many events tick k carries at rate events/s: the
// integral of the rate over the tick, so any rate is met exactly over
// a run without fractional carry state.
func eventsInTick(k, rate int, period time.Duration) int {
	perSec := int64(time.Second / period)
	through := func(t int64) int64 { return t * int64(rate) / perSec }
	return int(through(int64(k)+1) - through(int64(k)))
}
