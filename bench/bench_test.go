package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"adaptmirror/internal/event"
)

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestSegmentMedianIgnoresOneStalledSegment(t *testing.T) {
	s := newSegmented(3)
	// Segment p50s: 2, 3 and a stalled 100; the report is their median.
	for _, v := range []float64{1, 2, 3} {
		s.add(0, v)
	}
	for _, v := range []float64{3, 3, 3} {
		s.add(1, v)
	}
	for _, v := range []float64{100, 100, 100} {
		s.add(2, v)
	}
	s.add(-1, 7) // before the window
	s.add(3, 7)  // after it
	got := s.stat(50)
	want := segStat{Value: 3, Min: 2, Max: 100, Lo: 2, Hi: 100, Drift: 1, Samples: 9, Segs: 3}
	if got != want {
		t.Errorf("stat(50) = %+v, want %+v", got, want)
	}
	// Forty segments, two of them stalled: the value and the drift are
	// read off block medians, which two stalls do not move.
	per := make([]float64, 40)
	for i := range per {
		per[i] = 1
	}
	per[7], per[23] = 30, 50
	if st := seriesStat(per); st.Value != 1 || st.Max != 50 || st.Drift != 1 {
		t.Errorf("two stalled segments in forty: %+v", st)
	}
	// A run whose second half is 1.5x slower did drift.
	for i := 20; i < 40; i++ {
		per[i] = 1.5
	}
	if st := seriesStat(per); st.Drift != 1.5 {
		t.Errorf("drift of a run that slowed by half = %v, want 1.5", st.Drift)
	}
	if got := newSegmented(4).stat(99); got != (segStat{Drift: 1}) {
		t.Errorf("stat of no samples = %+v, want zero", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {1000, 99}, {100000, 99}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 90 samples in one segment: the 80th smallest, ten beyond it.
	s := newSegmented(1)
	for i := 1; i <= 90; i++ {
		s.add(0, float64(i))
	}
	if got := s.stat(0).Value; got != 80 {
		t.Errorf("tail of 1..90 = %v, want 80", got)
	}
}

func TestPacerSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, period: time.Millisecond}
	if got := p.due(7); !got.Equal(start.Add(7 * time.Millisecond)) {
		t.Errorf("due(7) = %v", got)
	}
	if _, ok := p.pending(start.Add(-time.Microsecond)); ok {
		t.Error("a tick was handed out before the schedule started")
	}
	if k, ok := p.pending(start); !ok || k != 0 {
		t.Errorf("at start: pending = %d, %v, want tick 0", k, ok)
	}
	// Woken 1.1 ms in: tick 1 is due (and 100 us late), tick 2 is not.
	now := start.Add(1100 * time.Microsecond)
	k, ok := p.pending(now)
	if !ok || k != 1 {
		t.Errorf("1.1 ms in: pending = %d, %v, want tick 1", k, ok)
	}
	if late := now.Sub(p.due(k)); late != 100*time.Microsecond {
		t.Errorf("tick 1 lateness = %v, want 100us", late)
	}
	if _, ok := p.pending(now); ok {
		t.Error("tick 2 handed out 0.9 ms early")
	}
	// A 5 ms stall: every missed tick is still handed out, one per
	// call, each with its own due time, none skipped and none twice.
	now = start.Add(7300 * time.Microsecond)
	for want := 2; want <= 7; want++ {
		k, ok := p.pending(now)
		if !ok || k != want {
			t.Fatalf("after stall: pending = %d, %v, want tick %d", k, ok, want)
		}
		if late := now.Sub(p.due(k)); late != time.Duration(7300-1000*want)*time.Microsecond {
			t.Errorf("tick %d lateness = %v", k, late)
		}
	}
	if _, ok := p.pending(now); ok {
		t.Error("caught up, yet another tick was handed out")
	}
}

func TestEventsInTickMeetsRateExactly(t *testing.T) {
	for _, rate := range []int{50000, 20000, 1500, 333, 7} {
		sum := 0
		for k := 0; k < 3000; k++ {
			n := eventsInTick(k, rate, time.Millisecond)
			if lo := rate / 1000; n < lo || n > lo+1 {
				t.Fatalf("rate %d tick %d carries %d events", rate, k, n)
			}
			sum += n
		}
		if sum != 3*rate {
			t.Errorf("rate %d: 3 s of ticks carry %d events, want %d", rate, sum, 3*rate)
		}
	}
}

// sameEvent compares what the EDE and the wire see of two events.
func sameEvent(a, b *event.Event) bool {
	if a.Type != b.Type || a.Flight != b.Flight || a.Stream != b.Stream || a.Seq != b.Seq || a.Status != b.Status {
		return false
	}
	if a.Type != event.TypeFAAPosition {
		return true
	}
	la, lo, al, _ := a.Position()
	lb, lob, alb, _ := b.Position()
	return la == lb && lo == lob && al == alb
}

func generate(seed int64, posSize int) (*generator, []*event.Event) {
	g := newGenerator(seed, 100, posSize, 32)
	var out []*event.Event
	for i := 1; i <= 100; i++ {
		out = append(out, g.populateNext(i))
	}
	g.hot = 10
	for i := 0; i < 1100; i++ {
		out = append(out, g.next())
	}
	return g, out
}

func TestGeneratorDeterminism(t *testing.T) {
	g, a := generate(42, 1024)
	_, b := generate(42, 1024)
	_, other := generate(43, 1024)
	differs := false
	statuses := 0
	for i := range a {
		if !sameEvent(a[i], b[i]) {
			t.Fatalf("same seed, event %d differs: %v vs %v", i, a[i], b[i])
		}
		if !sameEvent(a[i], other[i]) {
			differs = true
		}
		if a[i].Type == event.TypeDeltaStatus {
			statuses++
			if a[i].Stream != streamDelta || len(a[i].Payload) != 32 {
				t.Fatalf("status event %d: stream %d, %d payload bytes", i, a[i].Stream, len(a[i].Payload))
			}
		} else if len(a[i].Payload) != 1024 {
			t.Fatalf("position event %d has %d payload bytes", i, len(a[i].Payload))
		}
		if i >= 100 && a[i].Flight > 10 {
			t.Fatalf("event %d drawn outside the hot set: flight %d", i, a[i].Flight)
		}
	}
	if !differs {
		t.Error("a different seed produced the same sequence")
	}
	// 1100 stream events after the population, every 11th a status:
	// FAA to Delta 10:1.
	if statuses != 100 {
		t.Errorf("%d status events among 1100 stream events, want 100", statuses)
	}

	// The reference pass regenerates the sequence from the recorded
	// phases with minimum-size payloads; it must see the same events.
	var replayed []*event.Event
	newGenerator(42, 100, 0, 1).replay(g.phases, func(e *event.Event) { replayed = append(replayed, e) })
	if len(replayed) != len(a) {
		t.Fatalf("replay produced %d events, want %d", len(replayed), len(a))
	}
	for i := range a {
		if !sameEvent(a[i], replayed[i]) {
			t.Fatalf("replayed event %d differs: %v vs %v", i, a[i], replayed[i])
		}
	}
}

func TestLittleEstimator(t *testing.T) {
	// A queue fed at 1000 items/s where each item waits 5 ms holds 5
	// items at every instant.
	var l littleEstimator
	for ms := 0; ms <= 2000; ms++ {
		l.observe(float64(ms)/1000, 5)
	}
	if got := l.meanWait(2000); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("steady queue: mean wait %v, want 0.005", got)
	}
	// A burst of 100 items at t=0 drained at a constant rate until t=1:
	// the backlog falls linearly, items wait 0.5 s on average.
	var ramp littleEstimator
	for i := 0; i <= 100; i++ {
		ramp.observe(float64(i)/100, float64(100-i))
	}
	if got := ramp.meanWait(100); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("draining burst: mean wait %v, want 0.5", got)
	}
	if got := new(littleEstimator).meanWait(0); got != 0 {
		t.Errorf("no items: mean wait %v, want 0", got)
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", name, unit, better)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, sp := range workloads {
		if w := doc.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, w.Name, w.Why, sp.name, sp.why)
		}
		if !nameRE.MatchString(sp.name) || len(sp.why) > 200 || opWhat[sp.name] == "" {
			t.Errorf("workload %q: bad name, why over 200 characters, or no op_* definition", sp.name)
		}
		seen[sp.name] = true
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		if m := doc.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := doc.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		check(d.Name, d.Unit, d.Better)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
}

// TestQuickSmoke runs every workload for a second at tiny rates, traced,
// so the whole wiring — set-up, feeders, watcher, HTTP workers, rejoin
// cycles, the correctness checks, the trace file and both JSON result
// lines — is exercised. It asserts no timing.
func TestQuickSmoke(t *testing.T) {
	traceDir = t.TempDir()
	for _, sp := range workloads {
		sp := sp.quick()
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(sp, runOpts{seed: 1, seconds: 1, trace: true, setups: 1, layerD: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", res.Attempted, res.Failed, res.Problems)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				var out bytes.Buffer
				printResult(&out, res, defs)
				if !finish(&out, res, defs) {
					t.Fatalf("run did not finish clean:\n%s", out.String())
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var line struct {
					Correct   bool
					Attempted uint64
					Failed    uint64
					Metrics   map[string]metricValue
				}
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !line.Correct || len(line.Metrics) != len(defs) {
					t.Fatalf("result line: correct %v, %d metrics, want %d", line.Correct, len(line.Metrics), len(defs))
				}
			}
			for _, d := range endToEnd {
				if v := res.Vals[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v on %s: end-to-end metrics must never be 0", d.Name, v, sp.name)
				}
			}
			if _, err := os.Stat(res.TracePath); err != nil {
				t.Errorf("trace file: %v", err)
			}
			// Layer separation, as counted: simple mirroring ships
			// every event and never touches the snapshot cache; only
			// rejoin_cycle moves the rejoin counters.
			v := res.Vals
			// (The two counters behind the ratio are read a moment
			// apart, so events in flight at the window's edges show.)
			if r := v["core.mirrored_ratio"]; !sp.selective && (r < 0.98 || r > 1.02) {
				t.Errorf("mirrored ratio %v under simple mirroring, want 1", r)
			}
			if sp.selective && !(v["core.mirrored_ratio"] < 0.5) {
				t.Errorf("mirrored ratio %v under selective mirroring", v["core.mirrored_ratio"])
			}
			if sp.reqRate == 0 && (v["httpfront.bytes_per_s"] != 0 || v["core.served_per_site"] != 0) {
				t.Errorf("request serving active without requests: %v B/s, %v served", v["httpfront.bytes_per_s"], v["core.served_per_site"])
			}
			if (sp.burst > 0) != (v["core.rejoin_snapshot_bytes"] > 0) || (sp.burst > 0) != (v["core.rejoin_delta_bytes"] > 0) {
				t.Errorf("rejoin counters: delta %v B, snapshot %v B", v["core.rejoin_delta_bytes"], v["core.rejoin_snapshot_bytes"])
			}
		})
	}
}
