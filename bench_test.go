package adaptmirror

// Benchmarks regenerating every figure of the paper's evaluation
// (Section 4), plus ablations of the design choices DESIGN.md calls
// out. Each figure benchmark runs the full experiment sweep once per
// iteration and logs the regenerated data table; the headline numbers
// land in EXPERIMENTS.md. Run with:
//
//	go test -bench=Fig -benchtime=1x
//	go test -bench=Ablation -benchtime=1x
//
// (Figure sweeps take seconds per iteration; -benchtime=1x avoids
// needless repetition. A bare -bench=. works too — Go settles on one
// iteration for slow benchmarks.)

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/cbcast"
	"adaptmirror/internal/cluster"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/figures"
	"adaptmirror/internal/loadbal"
	"adaptmirror/internal/vclock"
	"adaptmirror/internal/workload"
)

// benchScale trims repetition during benchmarking: each point is a
// single run (the figure tables in EXPERIMENTS.md use the full
// median-of-5 scale via cmd/benchrunner).
var benchScale = func() figures.Scale {
	s := figures.Full
	s.Repeats = 1
	return s
}()

func runFigure(b *testing.B, f func() (figures.Figure, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", figures.Table(fig))
		}
	}
}

// BenchmarkFig4MirrorOverheadBySize regenerates Figure 4: overhead of
// mirroring to a single site vs event size, for no mirroring, simple,
// and selective mirroring.
func BenchmarkFig4MirrorOverheadBySize(b *testing.B) {
	runFigure(b, func() (figures.Figure, error) { return figures.Fig4(benchScale) })
}

// BenchmarkFig5MirrorCountOverhead regenerates Figure 5: execution
// time as mirror sites are added.
func BenchmarkFig5MirrorCountOverhead(b *testing.B) {
	runFigure(b, func() (figures.Figure, error) { return figures.Fig5(benchScale) })
}

// BenchmarkFig6MirrorsUnderLoad regenerates Figure 6: total time
// under constant 100 req/s for 1/2/4 mirrors across event sizes (the
// crossover figure).
func BenchmarkFig6MirrorsUnderLoad(b *testing.B) {
	runFigure(b, func() (figures.Figure, error) { return figures.Fig6(benchScale) })
}

// BenchmarkFig7MirrorFunctions regenerates Figure 7: total time vs
// request load for simple, selective, and selective with halved
// checkpoint frequency.
func BenchmarkFig7MirrorFunctions(b *testing.B) {
	runFigure(b, func() (figures.Figure, error) { return figures.Fig7(benchScale) })
}

// BenchmarkFig8UpdateDelay regenerates Figure 8: mean update delay vs
// request load, simple vs selective mirroring.
func BenchmarkFig8UpdateDelay(b *testing.B) {
	runFigure(b, func() (figures.Figure, error) { return figures.Fig8(benchScale) })
}

// BenchmarkFig9Adaptation regenerates Figure 9: the update-delay time
// series under bursty requests with and without runtime adaptation.
func BenchmarkFig9Adaptation(b *testing.B) {
	p := figures.DefaultFig9
	p.Repeats = 1
	runFigure(b, func() (figures.Figure, error) { return figures.Fig9(benchScale, p) })
}

// ablationOpts is the shared baseline workload for ablation benches.
func ablationOpts() cluster.Options {
	return cluster.Options{
		Mirrors:          1,
		Flights:          25,
		UpdatesPerFlight: 40,
		EventSize:        1000,
		StatePadding:     64,
		Seed:             1,
	}
}

func runAblation(b *testing.B, opts cluster.Options) {
	b.Helper()
	b.ReportAllocs()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunExperiment(opts)
		if err != nil {
			b.Fatal(err)
		}
		total += res.TotalTime
	}
	b.ReportMetric(total.Seconds()/float64(b.N), "s/run")
}

// BenchmarkAblationOverwriteLen sweeps the overwrite run length L:
// the knob behind "selective mirroring". Longer runs shed more mirror
// traffic at the cost of coarser mirror fidelity.
func BenchmarkAblationOverwriteLen(b *testing.B) {
	for _, l := range []int{0, 2, 5, 10, 20, 40} {
		b.Run(nameInt("L", l), func(b *testing.B) {
			opts := ablationOpts()
			opts.Selective = l
			runAblation(b, opts)
		})
	}
}

// BenchmarkAblationCheckpointFreq sweeps the checkpoint frequency
// (events per round).
func BenchmarkAblationCheckpointFreq(b *testing.B) {
	for _, f := range []int{10, 25, 50, 100, 200, 400} {
		b.Run(nameInt("every", f), func(b *testing.B) {
			opts := ablationOpts()
			opts.Selective = 10
			opts.ChkptFreq = f
			runAblation(b, opts)
		})
	}
}

// BenchmarkAblationCoalesceVsOverwrite compares the two
// traffic-reduction mechanisms at matched reduction factors.
func BenchmarkAblationCoalesceVsOverwrite(b *testing.B) {
	b.Run("overwrite-10", func(b *testing.B) {
		opts := ablationOpts()
		opts.Selective = 10
		runAblation(b, opts)
	})
	b.Run("coalesce-10", func(b *testing.B) {
		opts := ablationOpts()
		opts.Coalesce = true
		opts.MaxCoalesce = 10
		runAblation(b, opts)
	})
	b.Run("both", func(b *testing.B) {
		opts := ablationOpts()
		opts.Selective = 10
		opts.Coalesce = true
		opts.MaxCoalesce = 10
		runAblation(b, opts)
	})
}

// BenchmarkAblationTransport compares the two site interconnects.
func BenchmarkAblationTransport(b *testing.B) {
	for _, tr := range []cluster.Transport{cluster.TransportDirect, cluster.TransportTCP} {
		b.Run(tr.String(), func(b *testing.B) {
			opts := ablationOpts()
			opts.Selective = 10
			opts.Transport = tr
			runAblation(b, opts)
		})
	}
}

// BenchmarkAblationLoadBalance compares request load-balancing
// policies under a spike against two mirrors.
func BenchmarkAblationLoadBalance(b *testing.B) {
	run := func(b *testing.B, mkBal func(targets []*MainUnit) loadbal.Balancer) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl, err := NewCluster(ClusterConfig{Mirrors: 2})
			if err != nil {
				b.Fatal(err)
			}
			events := cluster.BuildEvents(cluster.Options{
				Flights: 25, UpdatesPerFlight: 20, EventSize: 512, Seed: 1,
			})
			cl.Feed(events)
			targets := cl.Targets()
			start := time.Now()
			served, _ := workload.Burst(targets, mkBal(targets), 300, nil)
			if served != 300 {
				b.Fatalf("served %d of 300", served)
			}
			cl.Drain()
			b.ReportMetric(time.Since(start).Seconds(), "s/run")
			cl.Close()
		}
	}
	b.Run("round-robin", func(b *testing.B) {
		run(b, func(t []*MainUnit) loadbal.Balancer {
			bal, _ := loadbal.NewRoundRobin(len(t))
			return bal
		})
	})
	b.Run("least-loaded", func(b *testing.B) {
		run(b, func(t []*MainUnit) loadbal.Balancer {
			bal, _ := loadbal.NewLeastLoaded(len(t), func(i int) int { return t[i].PendingRequests() })
			return bal
		})
	})
	b.Run("random", func(b *testing.B) {
		run(b, func(t []*MainUnit) loadbal.Balancer {
			bal, _ := loadbal.NewRandom(len(t), 1)
			return bal
		})
	})
}

// BenchmarkAblationAdaptationThresholds sweeps the primary threshold
// of the pending-request monitor under the Figure 9 burst pattern.
func BenchmarkAblationAdaptationThresholds(b *testing.B) {
	fn1 := adapt.Regime{ID: 1, Coalesce: true, MaxCoalesce: 10, CheckpointFreq: 50}
	fn2 := adapt.Regime{ID: 2, Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
	for _, primary := range []int{10, 30, 100} {
		b.Run(nameInt("primary", primary), func(b *testing.B) {
			opts := ablationOpts()
			opts.UpdatesPerFlight = 160
			opts.EventRate = 4000
			opts.Adaptive = true
			opts.Baseline = fn1
			opts.Degraded = fn2
			opts.PendingPrimary = primary
			opts.PendingSecondary = primary / 2
			opts.RequestPattern = workload.Bursty{
				Base: 20 * 60, Burst: 520 * 60,
				Period: time.Second, BurstLen: 300 * time.Millisecond,
			}
			opts.RequestsToAllSites = true
			opts.RequestsUntilDrained = true
			runAblation(b, opts)
		})
	}
}

// BenchmarkAblationNICOffload measures the paper's planned
// network-co-processor split (IXP1200 future work): hosting the
// auxiliary unit's mirroring/checkpointing work on a separate
// processor removes its overhead from the central node.
func BenchmarkAblationNICOffload(b *testing.B) {
	for _, offload := range []bool{false, true} {
		name := "host-only"
		if offload {
			name = "nic-offload"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				cl, err := cluster.New(cluster.Config{
					Mirrors:    2,
					Model:      costmodel.Default,
					NICOffload: offload,
				})
				if err != nil {
					b.Fatal(err)
				}
				events := cluster.BuildEvents(cluster.Options{
					Flights: 25, UpdatesPerFlight: 40, EventSize: 2000, Seed: 1,
				})
				start := time.Now()
				if err := cl.Feed(events); err != nil {
					b.Fatal(err)
				}
				cl.DrainAll()
				costmodel.WaitIdle(cl.CPUs...)
				total += time.Since(start)
				cl.Close()
			}
			b.ReportMetric(total.Seconds()/float64(b.N), "s/run")
		})
	}
}

// BenchmarkAblationCBCASTBaseline compares the paper's
// application-level mirroring against the classical CBCAST-style
// baseline it cites (Birman et al.): causal broadcast replicates every
// event to every member with no semantic filtering, so each replica
// pays full processing cost for the full stream. Selective mirroring
// replicates the same state at a fraction of the traffic.
func BenchmarkAblationCBCASTBaseline(b *testing.B) {
	const (
		flights, perFlight = 25, 40
		size               = 1000
		members            = 3 // one source replica + two others
	)
	events := cluster.BuildEvents(cluster.Options{
		Flights: flights, UpdatesPerFlight: perFlight, EventSize: size, Seed: 1,
	})
	model := costmodel.Default

	b.Run("cbcast-full-replication", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cpus := make([]*costmodel.CPU, members)
			engines := make([]*ede.Engine, members)
			for m := range cpus {
				cpus[m] = &costmodel.CPU{}
				engines[m] = ede.New(ede.Config{Model: model, CPU: cpus[m]})
			}
			group, err := cbcast.NewGroup(members, func(member int, msg cbcast.Message) {
				engines[member].Process(msg.Event)
			})
			if err != nil {
				b.Fatal(err)
			}
			src, _ := group.Member(0)
			start := time.Now()
			for _, e := range events {
				// The sender also pays the per-member send cost the
				// mirroring path would pay.
				cpus[0].Charge(model.SerializeCost(len(e.Payload)))
				for m := 1; m < members; m++ {
					cpus[0].Charge(model.SubmitCost(len(e.Payload)))
				}
				if err := src.Broadcast(e); err != nil {
					b.Fatal(err)
				}
			}
			costmodel.WaitIdle(cpus...)
			b.ReportMetric(time.Since(start).Seconds(), "s/run")
			b.ReportMetric(float64(group.Broadcasts()*uint64(members-1)), "msgs")
			group.Close()
			// Replicas converged: every member processed everything.
			for m := 1; m < members; m++ {
				if engines[m].State().Processed() != uint64(len(events)) {
					b.Fatalf("member %d processed %d of %d", m, engines[m].State().Processed(), len(events))
				}
			}
		}
	})

	b.Run("selective-mirroring", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := cluster.Options{
				Mirrors: members - 1,
				Flights: flights, UpdatesPerFlight: perFlight, EventSize: size,
				Selective: 10, Seed: 1,
			}
			res, err := cluster.RunExperiment(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.TotalTime.Seconds(), "s/run")
			b.ReportMetric(float64(res.Central.Mirrored*uint64(members-1)), "msgs")
		}
	})
}

// BenchmarkFanoutBatch isolates the central fan-out pipeline: a
// zero-cost model and instant sinks leave only the pipeline's own
// queueing, cloning, and per-link handoff. Events/op costs drop and
// allocs/op amortize as the send batch grows; added mirrors cost a
// per-link enqueue rather than a serial submission.
func BenchmarkFanoutBatch(b *testing.B) {
	discard := batchDiscard{}
	for _, mirrors := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1, 16, 64} {
			b.Run(nameInt("m", mirrors)+"/"+nameInt("batch", batch), func(b *testing.B) {
				b.ReportAllocs()
				links := make([]core.MirrorLink, mirrors)
				for i := range links {
					links[i] = core.MirrorLink{Data: discard, Ctrl: discard}
				}
				c := core.NewCentral(core.CentralConfig{
					Streams:     1,
					Params:      core.Params{CheckpointFreq: 1 << 30},
					Mirrors:     links,
					SendBatch:   batch,
					OutboxDepth: 1 << 16,
				})
				c.InstallSimple()
				events := make([]*event.Event, b.N)
				for i := range events {
					events[i] = &event.Event{
						Type: event.TypeFAAPosition, Seq: uint64(i + 1),
						Coalesced: 1, Payload: benchPayload,
					}
				}
				b.ResetTimer()
				for _, e := range events {
					if err := c.Ingest(e); err != nil {
						b.Fatal(err)
					}
				}
				c.Drain()
				b.StopTimer()
				c.Close()
			})
		}
	}
}

var benchPayload = make([]byte, 128)

// batchDiscard is an instant sink for both link classes.
type batchDiscard struct{}

func (batchDiscard) Submit(*event.Event) error                   { return nil }
func (batchDiscard) SubmitOwned([]*event.Event, event.Ref) error { return nil }

// BenchmarkCodecBatchWrite compares per-event framing (WriteEvent +
// Flush per event, the control-link codec) against whole-batch framing
// (one columnar WriteBatchFrame + one Flush, the data-link codec).
func BenchmarkCodecBatchWrite(b *testing.B) {
	for _, n := range []int{1, 16, 64} {
		batch := make([]*event.Event, n)
		var bytes int64
		for i := range batch {
			e := event.NewPosition(event.FlightID(i+1), uint64(i+1), 1, 2, 3, 1024)
			e.VT = vclock.VC{uint64(i + 1), 0}
			batch[i] = e
			bytes += int64(4 + e.EncodedSize())
		}
		b.Run(nameInt("per-event", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			w := event.NewWriter(io.Discard)
			for i := 0; i < b.N; i++ {
				for _, e := range batch {
					if err := w.WriteEvent(e); err != nil {
						b.Fatal(err)
					}
					if err := w.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(nameInt("batch", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			w := event.NewWriter(io.Discard)
			for i := 0; i < b.N; i++ {
				if err := w.WriteBatchFrame(batch); err != nil {
					b.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// repeatFrames feeds the same encoded frame bytes forever, so a
// decoder can be driven for b.N events from one encoding.
type repeatFrames struct {
	data []byte
	off  int
}

func (r *repeatFrames) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkWireFrame round-trips batches through the data-link wire
// codec — encode into a columnar frame, decode back into events. One
// benchmark op is one event, so ns/op and allocs/op read per event; the
// decode path borrows pooled slabs and must hold 0 allocs/op in steady
// state (event.TestWireFrameRoundTripZeroAllocs asserts it).
func BenchmarkWireFrame(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("columnar/n=%d", n), func(b *testing.B) {
			batch := make([]*event.Event, n)
			for i := range batch {
				e := event.NewPosition(event.FlightID(i+1), uint64(i+1), 1, 2, 3, 1024)
				e.VT = vclock.VC{uint64(i + 1), 0}
				e.Payload = benchPayload
				batch[i] = e
			}
			// Encode one frame up front to feed the decoder in a loop.
			var sink frameBuffer
			w := event.NewWriter(&sink)
			err := w.WriteBatchFrame(batch)
			if err == nil {
				err = w.Flush()
			}
			if err != nil {
				b.Fatal(err)
			}
			r := event.NewReader(&repeatFrames{data: sink.buf})
			enc := event.NewWriter(io.Discard)
			b.ReportAllocs()
			b.SetBytes(int64(len(sink.buf)) / int64(n))
			b.ResetTimer()
			for done := 0; done < b.N; done += n {
				if err := enc.WriteBatchFrame(batch); err != nil {
					b.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					b.Fatal(err)
				}
				_, bb, err := r.ReadFrame()
				if err != nil {
					b.Fatal(err)
				}
				if bb == nil || len(bb.Events) != n {
					b.Fatalf("decoded %v events, want batch of %d", bb, n)
				}
				bb.Release()
			}
		})
	}
}

// frameBuffer is a minimal append-only sink (bytes.Buffer grows in
// ways that would show up as setup noise).
type frameBuffer struct{ buf []byte }

func (f *frameBuffer) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

// BenchmarkServeInitStorm measures the init-state serving path under
// concurrent thin-client storms (the paper's airport power-failure
// scenario): one main unit holding 1000 flights, hammered by 1/8/64
// synchronous clients. Zero cost model and no virtual CPU, so the
// numbers isolate the real serve path — snapshot construction, request
// queueing, and response delivery.
func BenchmarkServeInitStorm(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(nameInt("clients", clients), func(b *testing.B) {
			m := core.NewMainUnit(core.MainConfig{
				EDE:           ede.Config{StatePadding: 64},
				RequestBuffer: 1 << 16,
			})
			defer m.Close()
			const flights = 1000
			for f := 0; f < flights; f++ {
				if err := m.Deliver(event.NewPosition(event.FlightID(f), 1, 1, 2, 3, 64)); err != nil {
					b.Fatal(err)
				}
			}
			for m.Processed() < flights {
				time.Sleep(time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var next atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						state, err := m.RequestInitState()
						if err != nil {
							errs <- err
							return
						}
						if state.Len() == 0 {
							errs <- errEmptyState
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
		})
	}
}

var errEmptyState = fmt.Errorf("empty init state")

// BenchmarkSnapshotRebuild measures one snapshot serve at 1000 flights
// in the two regimes the epoch cache distinguishes: "warm" (no state
// mutation since the last serve) and "one-dirty-flight" (a single
// position update applied between serves).
func BenchmarkSnapshotRebuild(b *testing.B) {
	for _, mode := range []string{"warm", "one-dirty-flight"} {
		b.Run(mode, func(b *testing.B) {
			en := ede.New(ede.Config{StatePadding: 64})
			const flights = 1000
			for f := 0; f < flights; f++ {
				en.Process(event.NewPosition(event.FlightID(f), 1, 1, 2, 3, 64))
			}
			en.ServeInitState() // prime
			dirty := mode == "one-dirty-flight"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dirty {
					b.StopTimer()
					en.Process(event.NewPosition(event.FlightID(i%flights), uint64(i), 4, 5, 6, 64))
					b.StartTimer()
				}
				if en.ServeInitState().Len() == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}

func nameInt(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{digits[v%10]}, buf...)
		v /= 10
	}
	return prefix + "-" + string(buf)
}

// rejoinSink adapts a mirror site's ingest to core.DataSender for the
// rejoin-transfer benchmark below.
type rejoinSink func([]*event.Event, event.Ref) error

func (f rejoinSink) SubmitOwned(es []*event.Event, ref event.Ref) error { return f(es, ref) }

// benchRejoinCluster builds the rejoin-transfer fixture: a mirrored
// cluster carrying many flights of padded state, a committed
// checkpoint cut, and a short tail of traffic past the cut touching
// only a few flights — the workload where cut-anchored deltas pay off.
func benchRejoinCluster(b *testing.B) (*cluster.Cluster, vclock.VC) {
	b.Helper()
	cl, err := cluster.New(cluster.Config{
		Mirrors:      1,
		StatePadding: 256,
		Params:       core.Params{CheckpointFreq: 1 << 30}, // manual checkpoints only
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)

	base := cluster.BuildEvents(cluster.Options{
		Flights: 400, UpdatesPerFlight: 4, EventSize: 128, Seed: 7,
	})
	if err := cl.Feed(base); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cl.Mirrors[0].Received() < uint64(len(base)) {
		if time.Now().After(deadline) {
			b.Fatalf("mirror received %d/%d base events", cl.Mirrors[0].Received(), len(base))
		}
		time.Sleep(100 * time.Microsecond)
	}
	cl.Central.Checkpoint()
	for cl.Mirrors[0].Backup().Committed() == nil {
		if time.Now().After(deadline) {
			b.Fatal("no committed cut at the mirror")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cut := cl.Mirrors[0].Backup().Committed()

	// Past the cut only 8 of the 400 flights mutate.
	tail := cluster.BuildEvents(cluster.Options{
		Flights: 8, UpdatesPerFlight: 2, EventSize: 128, Seed: 9,
	})
	if err := cl.Feed(tail); err != nil {
		b.Fatal(err)
	}
	cl.DrainAll()
	return cl, cut
}

// BenchmarkRejoinTransfer measures one mirror rejoin transfer end to
// end — build under the barrier, ship, apply at the receiver — for
// the full-snapshot path against the cut-anchored delta path, and
// reports the wire bytes each mode ships. `make bench-rejoin` runs
// both sides repeatedly and gates them with cmd/benchgate: the delta
// side must converge faster (Mann-Whitney on ns/op) and ship at least
// 5x fewer bytes (bytes_shipped/op ratio).
func BenchmarkRejoinTransfer(b *testing.B) {
	for _, mode := range []string{"snapshot", "delta"} {
		b.Run(mode, func(b *testing.B) {
			cl, cut := benchRejoinCluster(b)
			if mode == "snapshot" {
				cut = nil // a rejoiner with no usable cut: full transfer
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := core.NewMirrorSite(core.MirrorSiteConfig{})
				if _, err := cl.Central.RecoverMirrorSince(rejoinSink(fresh.HandleOwnedBatch), cut); err != nil {
					b.Fatal(err)
				}
				fresh.Drain()
				fresh.Close()
			}
			b.StopTimer()
			stats := cl.Central.RejoinStats()
			switch mode {
			case "snapshot":
				if stats.Snapshots != uint64(b.N) {
					b.Fatalf("RejoinStats = %+v, want %d snapshot transfers", stats, b.N)
				}
				b.ReportMetric(float64(stats.SnapshotBytes)/float64(b.N), "bytes_shipped/op")
			case "delta":
				if stats.Deltas != uint64(b.N) {
					b.Fatalf("RejoinStats = %+v, want %d delta transfers", stats, b.N)
				}
				b.ReportMetric(float64(stats.DeltaBytes)/float64(b.N), "bytes_shipped/op")
			}
		})
	}
}
