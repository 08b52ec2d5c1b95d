package cluster

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/faultinject"
	"adaptmirror/internal/site"
	"adaptmirror/internal/vclock"
)

// countingRef is a refcounting fake event.Ref: the count is what a
// pooled slab's would be, so a path that keeps a view must hold the
// count up and a path that is done must bring it back to zero.
type countingRef struct {
	t *testing.T
	n atomic.Int64
}

func (r *countingRef) Retain() { r.n.Add(1) }

func (r *countingRef) Release() {
	if r.n.Add(-1) < 0 {
		r.t.Error("ref released more times than retained")
	}
}

// TestDataLinkContract drives core.DataSender through every data link
// there is into a real mirror site and asserts the contract once:
// events arrive in order exactly once, and once the receiver has
// drained and its backup is trimmed every reference is back to zero —
// no path leaks a slab, retains past the trim, or double-releases.
func TestDataLinkContract(t *testing.T) {
	handler := func(m *core.MirrorSite) echo.BatchHandler {
		return func(es []*event.Event, ref event.Ref) { _ = m.HandleOwnedBatch(es, ref) }
	}
	cases := []struct {
		name string
		// wire returns the link that delivers into m and, when the link
		// swallows traffic, a hook run before each batch that reports
		// whether that batch will be lost.
		wire func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(batch int) bool)
	}{
		{"direct call", func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(int) bool) {
			return dataFunc(m.HandleOwnedBatch), nil
		}},
		{"local channel", func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(int) bool) {
			ch := echo.NewLocal("data")
			t.Cleanup(func() { ch.Close() })
			if _, err := ch.SubscribeBatch(m.HandleData, handler(m)); err != nil {
				t.Fatal(err)
			}
			return ch, nil
		}},
		{"local channel, plain subscriber", func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(int) bool) {
			ch := echo.NewLocal("data")
			t.Cleanup(func() { ch.Close() })
			if _, err := ch.Subscribe(m.HandleData); err != nil {
				t.Fatal(err)
			}
			return ch, nil
		}},
		{"tcp send link", func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(int) bool) {
			link, err := echo.DialSend(serveData(t, m, handler(m)), site.ChanData)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { link.Close() })
			return link, nil
		}},
		{"tcp reconnecting site link", func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(int) bool) {
			link := site.NewLink(serveData(t, m, handler(m)), site.ChanData, site.LinkOptions{})
			t.Cleanup(func() { link.Close() })
			return link, nil
		}},
		{"fault plane", func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(int) bool) {
			return faultinject.NewPlane(1, nil).WrapData("data", dataFunc(m.HandleOwnedBatch), faultinject.Faults{}), nil
		}},
		{"fault plane, partitioned", func(t *testing.T, m *core.MirrorSite) (core.DataSender, func(int) bool) {
			l := faultinject.NewPlane(1, nil).WrapData("data", dataFunc(m.HandleOwnedBatch), faultinject.Faults{})
			return l, func(batch int) bool {
				l.SetDown(batch == 1)
				return batch == 1
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := core.NewMirrorSite(core.MirrorSiteConfig{})
			defer m.Close()
			link, swallows := c.wire(t, m)

			var refs []*countingRef
			var want []uint64
			var last vclock.VC
			seq := uint64(0)
			for b := 0; b < 3; b++ {
				lost := swallows != nil && swallows(b)
				batch := make([]*event.Event, 16)
				for i := range batch {
					seq++
					e := event.NewPosition(event.FlightID(1+seq%4), seq, float64(seq), 2, 3, 64)
					e.VT = vclock.VC{seq}
					batch[i] = e
					if !lost {
						want = append(want, seq)
						last = e.VT
					}
				}
				ref := &countingRef{t: t}
				refs = append(refs, ref)
				ref.Retain() // the caller's own borrow, as linkSender.send holds it
				if err := link.SubmitOwned(batch, ref); err != nil {
					t.Fatal(err)
				}
				ref.Release()
			}

			waitUntil(t, "every surviving event to arrive", func() bool { return m.Received() >= uint64(len(want)) })
			waitUntil(t, "the backup to hold them", func() bool { return m.Backup().Len() >= len(want) })
			got := m.Backup().Snapshot()
			if m.Received() != uint64(len(want)) || len(got) != len(want) {
				t.Fatalf("received %d, retained %d, want %d of each: not exactly once", m.Received(), len(got), len(want))
			}
			for i, e := range got {
				if e.Seq != want[i] {
					t.Fatalf("arrival %d has seq %d, want %d: order violated", i, e.Seq, want[i])
				}
			}

			// Drain the receiver, then trim as a checkpoint commit would:
			// from here on nothing may reference a batch any more.
			m.Drain()
			if m.Processed() != uint64(len(want)) {
				t.Fatalf("processed %d, want %d", m.Processed(), len(want))
			}
			m.Backup().Commit(last)
			if n := m.Backup().Len(); n != 0 {
				t.Fatalf("backup retains %d events after the commit", n)
			}
			for _, ref := range refs {
				waitUntil(t, "the batch's references to drop", func() bool { return ref.n.Load() == 0 })
			}
		})
	}
}

// serveData exports m's ingest as a "data" channel on a loopback
// event-channel server and returns its address.
func serveData(t *testing.T, m *core.MirrorSite, bh echo.BatchHandler) string {
	t.Helper()
	bus := echo.NewBus()
	ch, _ := bus.Open(site.ChanData)
	if _, err := ch.SubscribeBatch(m.HandleData, bh); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := echo.NewServer(bus)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); bus.Close() })
	return ln.Addr().String()
}

// waitUntil polls cond until it holds or five seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
