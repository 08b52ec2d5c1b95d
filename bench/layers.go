package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/statedelta"
	"adaptmirror/internal/vclock"
)

// This file is the per-layer half (B) of the benchmark: it calls each
// package's exported functions directly, single-threaded, on the same
// seeded inputs the end-to-end run is fed, in batches of layerBatch
// events (the sending task's batch size). It doubles as the
// single-threaded baseline.

const (
	layerBatch   = 64
	layerBatches = 64
)

// timeOp calls fn, which does `per` units of work, until d has passed
// and returns ns per unit.
func timeOp(d time.Duration, per int, fn func()) float64 {
	fn() // first call pays pool and map growth
	start := time.Now()
	calls := 0
	for time.Since(start) < d {
		fn()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls*per)
}

// timeCalls calls fn until d has passed and returns the median ns of
// one call.
func timeCalls(d time.Duration, fn func()) float64 {
	fn()
	var ns []float64
	for start := time.Now(); time.Since(start) < d; {
		t := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t).Nanoseconds()))
	}
	sort.Float64s(ns)
	return percentile(ns, 50)
}

// layerInputs builds the workload's stream the way the central's
// receiving task would hand it on: populated flights first, then
// layerBatches batches, every event stamped with its vector timestamp.
func layerInputs(sp spec, seed int64) (populate []*event.Event, batches [][]*event.Event) {
	g := newGenerator(seed, sp.flights, sp.posSize, sp.statusSize)
	clock := vclock.New(2)
	stamp := func(e *event.Event) *event.Event {
		clock = clock.Tick(int(e.Stream))
		e.VT = clock.Clone()
		return e
	}
	for i := 1; i <= sp.flights; i++ {
		populate = append(populate, stamp(g.populateNext(i)))
	}
	g.hot = sp.hot
	for b := 0; b < layerBatches; b++ {
		batch := make([]*event.Event, layerBatch)
		for i := range batch {
			batch[i] = stamp(g.next())
		}
		batches = append(batches, batch)
	}
	return populate, batches
}

// countingConn counts the bytes written to a connection: what a link
// really puts on the wire, headers and length prefixes included.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// runLayers measures every layer for at least d each and returns the
// (B) rows of the per-layer table. A layer that cannot be set up
// reports -1 rather than a made-up number.
func runLayers(sp spec, seed int64, d time.Duration) map[string]float64 {
	v := map[string]float64{}
	populate, batches := layerInputs(sp, seed)
	total := layerBatch * layerBatches

	// event: columnar batch frame codec.
	var frame []byte
	v["event.frame_encode_ns_per_event"] = timeOp(d, layerBatch, func() {
		frame, _ = event.AppendBatchFrame(frame[:0], batches[0]) // a generated batch always encodes
	})
	v["event.frame_bytes_per_event"] = float64(len(frame)) / layerBatch
	v["event.frame_decode_ns_per_event"] = timeOp(d, layerBatch, func() {
		if b, err := event.ParseBatchFrame(frame); err == nil {
			b.Release()
		}
	})

	// vclock: what the receiving task does per event.
	clock := vclock.New(2)
	var stamped vclock.VC
	v["vclock.tick_clone_ns"] = timeOp(d, layerBatch, func() {
		for i := 0; i < layerBatch; i++ {
			clock = clock.Tick(i & 1)
			stamped = clock.Clone()
		}
	})
	_ = stamped

	// queue: ready-queue hop and backup append + checkpoint trim.
	ready := queue.NewReady(0)
	got := make([]*event.Event, 0, layerBatch)
	v["queue.ready_put_get_ns_per_event"] = timeOp(d, layerBatch, func() {
		for _, e := range batches[0] {
			_ = ready.Put(e) // never closed here
		}
		got, _ = ready.GetAppend(got[:0], layerBatch)
	})
	v["queue.backup_append_commit_ns_per_event"] = timeOp(d, total, func() {
		backup := queue.NewBackup()
		for _, b := range batches {
			backup.AppendBatch(b)
			backup.Commit(b[len(b)-1].VT)
		}
	})

	// ede: rule application and the init-state snapshot cache.
	en := ede.New(ede.Config{StatePadding: sp.padding})
	for _, e := range populate {
		en.Process(e)
	}
	v["ede.process_ns_per_event"] = timeOp(d, total, func() {
		for _, b := range batches {
			for _, e := range b {
				en.Process(e)
			}
		}
	})
	v["ede.snapshot_warm_ns"] = timeCalls(d, func() { en.ServeInitState() })
	next := 0
	v["ede.snapshot_one_dirty_ns"] = timeCalls(d, func() {
		en.Process(batches[0][next%layerBatch])
		next++
		en.ServeInitState()
	})

	// core send path: the selective filter over a view batch, as the
	// sending task runs it.
	sem := core.NewSemantics()
	sem.SetOverwrite(event.TypeFAAPosition, 10)
	sem.AddSeqRule(core.SeqRule{Trigger: event.TypeDeltaStatus, TriggerStatus: event.StatusLanded, Discard: event.TypeFAAPosition})
	sem.AddTupleRule(core.TupleRule{
		Statuses: []event.Status{event.StatusLanded, event.StatusAtRunway, event.StatusAtGate},
		Out:      event.TypeFlightArrived,
	})
	v["core.filter_ns_per_event"] = timeOp(d, total, func() {
		for _, b := range batches {
			vb := event.ShallowBatch(b)
			sem.FilterBatch(vb.Events)
			vb.Release()
		}
	})

	// core serve path and httpfront: one populated main unit, asked
	// directly and through the HTTP handler.
	main := core.NewMainUnit(core.MainConfig{EDE: ede.Config{StatePadding: sp.padding}})
	for _, e := range populate {
		_ = main.Deliver(e) // open until Close below
	}
	for main.Processed() < uint64(len(populate)) {
		time.Sleep(time.Millisecond)
	}
	v["core.request_init_ns_p50"] = timeCalls(d, func() { _, _ = main.RequestInitState() })
	handler := httpfront.New(main).Handler()
	req := httptest.NewRequest(http.MethodGet, "/init", nil)
	v["httpfront.init_handler_ns_p50"] = timeCalls(d, func() {
		handler.ServeHTTP(httptest.NewRecorder(), req)
	})
	main.Close()

	v["echo.tcp_submit_ns_per_event"], v["echo.tcp_bytes_per_event"] = echoLayer(d, batches)
	v["checkpoint.round_ns"] = checkpointLayer(d, batches[0][layerBatch-1].VT)

	// statedelta: the rejoin delta of the hot flights, encoded and
	// applied to a populated replica.
	hot := sp.hot
	if hot <= 0 || hot > sp.flights {
		hot = sp.flights
	}
	recs := make([]statedelta.Record, hot)
	for i := range recs {
		recs[i] = statedelta.Record{
			Flight: event.FlightID(i + 1), Mask: statedelta.MaskAll,
			Status: uint8(event.StatusEnRoute), Lat: 1, Lon: 2, Alt: 3, PosUpdates: uint64(i),
		}
	}
	var delta []byte
	v["statedelta.encode_ns_per_record"] = timeOp(d, hot, func() {
		delta, _ = statedelta.EncodeFrame(recs) // records built above always encode
	})
	v["statedelta.apply_ns_per_record"] = timeOp(d, hot, func() {
		_ = en.State().ApplyDeltaAbsolute(delta) // a frame EncodeFrame just produced
	})
	return v
}

// echoLayer pushes batches through a SendLink over loopback TCP into
// an echo server's channel, as a mirror's data link does, and returns
// ns per event from submit to delivery and wire bytes per event.
func echoLayer(d time.Duration, batches [][]*event.Event) (nsPerEvent, bytesPerEvent float64) {
	bus := echo.NewBus()
	defer bus.Close()
	ch, err := bus.Open("data")
	if err != nil {
		return -1, -1
	}
	var received atomic.Int64
	caughtUp := make(chan struct{}, 1)
	var target atomic.Int64
	note := func(n int) {
		if received.Add(int64(n)) == target.Load() {
			caughtUp <- struct{}{}
		}
	}
	if _, err := ch.SubscribeBatch(
		func(*event.Event) { note(1) },
		func(es []*event.Event, _ event.Ref) { note(len(es)) },
	); err != nil {
		return -1, -1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return -1, -1
	}
	srv := echo.NewServer(bus)
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return -1, -1
	}
	cc := &countingConn{Conn: conn}
	link, err := echo.NewSendLink(cc, "data")
	if err != nil {
		return -1, -1
	}
	defer link.Close()

	total := layerBatch * len(batches)
	sent := 0
	failed := false
	ns := timeOp(d, total, func() {
		sent += total
		target.Store(int64(sent))
		for _, b := range batches {
			if link.SubmitOwned(b, nil) != nil {
				failed = true
				return
			}
		}
		<-caughtUp
	})
	if failed {
		return -1, -1
	}
	return ns, float64(cc.written.Load()) / float64(sent)
}

// checkpointLayer runs whole checkpoint rounds — CHKPT to two mirror
// aux units and the central main unit, replies, COMMIT — through
// direct calls, and returns ns per round: the protocol's own cost with
// no transport under it.
func checkpointLayer(d time.Duration, progress vclock.VC) float64 {
	var coord *checkpoint.Coordinator
	last := func() vclock.VC { return progress }
	var mirrors []*checkpoint.Mirror
	for i := 0; i < 2; i++ {
		site := uint8(i)
		m := &checkpoint.Mirror{Commit: func(vclock.VC) {}}
		part := &checkpoint.Main{LastProcessed: last, Reply: func(e *event.Event) { m.OnControl(e) }}
		m.ToMain = part.OnControl
		m.ToCentral = func(e *event.Event) {
			e.Stream = site
			coord.OnReply(e)
		}
		mirrors = append(mirrors, m)
	}
	central := &checkpoint.Main{LastProcessed: last, Reply: func(e *event.Event) {
		e.Stream = checkpoint.CentralParticipant
		coord.OnReply(e)
	}}
	coord = &checkpoint.Coordinator{
		Propose: last,
		Broadcast: func(e *event.Event) {
			for _, m := range mirrors {
				m.OnControl(e.Clone())
			}
			central.OnControl(e.Clone())
		},
		OnCommit:     func(vclock.VC) {},
		Participants: len(mirrors) + 1,
	}
	return timeOp(d, 1, func() { coord.Init() })
}
