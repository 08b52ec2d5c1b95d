package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptmirror/internal/metrics"
)

// Families for the tests below, declared the way product code does.
var fams = struct{ sent, depth, delay, stall, batch, uptime, weird *Family }{
	sent:   Declare("obs_test_sent_total", KindCounter, "Events sent per mirror link."),
	depth:  Declare("obs_test_queue_depth", KindGauge, "Queue depth."),
	delay:  Declare("obs_test_delay_seconds", KindHistogram, "Update delay."),
	stall:  Declare("obs_test_stall_seconds_total", KindCounter, "Time stalled."),
	batch:  Declare("obs_test_batch_events", KindHistogram, "Events per batch."),
	uptime: Declare("obs_test_uptime", KindGauge, "Seconds up."),
	weird:  Declare("obs_test_weird", KindCounter, "help with \\ and\nnewline"),
}

// mustPanic runs fn and returns what it panicked with.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		msg = r.(string)
	}()
	fn()
	return ""
}

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter(fams.sent, L("mirror", "0"))
	c2 := r.Counter(fams.sent, L("mirror", "0"))
	if c1 != c2 {
		t.Fatal("same (family, labels) should return the same counter")
	}
	c3 := r.Counter(fams.sent, L("mirror", "1"))
	if c1 == c3 {
		t.Fatal("distinct label sets should return distinct counters")
	}
	if r.DurationCounter(fams.stall) != r.DurationCounter(fams.stall) ||
		r.Histogram(fams.batch) != r.Histogram(fams.batch) {
		t.Fatal("every instrument kind is get-or-create")
	}
	if n := strings.Count(expose(t, r), "# TYPE "); n != 3 {
		t.Fatalf("%d families exposed, want 3", n)
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge(fams.depth, L("x", "1"), L("y", "2"))
	b := r.Gauge(fams.depth, L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("label order should not affect series identity")
	}
}

// A family used as a kind other than its declared one is a programming
// error the registry reports by panicking — on a nil registry too, so a
// test without one still catches it — and nothing leaks into the output.
func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter(fams.sent).Inc()
	for name, misuse := range map[string]func(r *Registry){
		"obs_test_sent_total":    func(r *Registry) { r.Gauge(fams.sent).Set(42) },
		"obs_test_queue_depth":   func(r *Registry) { r.Histogram(fams.depth).Record(42 * time.Second) },
		"obs_test_delay_seconds": func(r *Registry) { r.Func(fams.delay, func() float64 { return 42 }) },
		"obs_test_batch_events":  func(r *Registry) { r.DurationCounter(fams.batch).Add(42 * time.Second) },
	} {
		for _, reg := range []*Registry{r, nil} {
			if msg := mustPanic(t, func() { misuse(reg) }); !strings.Contains(msg, name) || !strings.Contains(msg, "another kind") {
				t.Errorf("panic %q does not report a kind misuse of %s", msg, name)
			}
		}
	}
	if out := expose(t, r); strings.Contains(out, "42") || strings.Count(out, "# TYPE ") != 1 {
		t.Fatalf("an instrument of the wrong kind leaked into the output:\n%s", out)
	}
}

// A KindCounter family hands out counters and duration counters, but
// one series holds one instrument: asking for the other type panics
// instead of silently replacing the first owner's series.
func TestRegistrySeriesKeepsItsInstrument(t *testing.T) {
	r := NewRegistry()
	r.Counter(fams.stall, L("mirror", "0")).Add(3)
	r.DurationCounter(fams.stall, L("mirror", "1")).Add(time.Second)
	if msg := mustPanic(t, func() { r.DurationCounter(fams.stall, L("mirror", "0")) }); !strings.Contains(msg, "mirror=0") {
		t.Fatalf("panic %q does not name the series", msg)
	}
	if out := expose(t, r); !strings.Contains(out, `obs_test_stall_seconds_total{mirror="0"} 3`) ||
		!strings.Contains(out, `obs_test_stall_seconds_total{mirror="1"} 1`) {
		t.Fatalf("both owners' series must survive:\n%s", out)
	}
}

// A family is declared once: a second declaration — the way
// request_latency_seconds once had two HELP texts — panics at package
// initialization, which fails every binary that links both.
func TestDeclareRejectsSecondDeclaration(t *testing.T) {
	msg := mustPanic(t, func() { Declare("obs_test_sent_total", KindCounter, "Another text.") })
	if !strings.Contains(msg, "declared twice") || !strings.Contains(msg, "Another text.") {
		t.Fatalf("panic %q does not report both declarations", msg)
	}
	mustPanic(t, func() { Declare("obs_test_no_help_total", KindCounter, "") })
	mustPanic(t, func() { Declare("bad name", KindGauge, "Help.") })
	for _, f := range Families() {
		if f.Name == "obs_test_sent_total" && f != fams.sent {
			t.Fatal("the first declaration must stand")
		}
		if f.Name == "obs_test_no_help_total" || f.Name == "bad name" {
			t.Fatalf("refused declaration %q is in the catalog", f.Name)
		}
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter(fams.sent).Inc()
	r.Gauge(fams.depth).Set(1)
	r.Histogram(fams.delay).Record(time.Millisecond)
	r.DurationCounter(fams.stall).Add(time.Second)
	r.ValueHistogram("obs_test_batch_events").Record(1)
	r.Func(fams.sent, func() float64 { return 1 })
	if out := expose(t, r); out != "" {
		t.Fatalf("nil registry exposed %q", out)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(fams.sent, L("mirror", "0")).Add(5)
	r.Counter(fams.sent, L("mirror", "1")).Add(7)
	r.Gauge(fams.depth, L("site", "central")).Set(3)
	r.Histogram(fams.delay).Record(10 * time.Millisecond)
	r.Histogram(fams.delay).Record(20 * time.Millisecond)
	r.DurationCounter(fams.stall, L("mirror", "0")).Add(2 * time.Second)
	r.Histogram(fams.batch).Record(64)
	r.Func(fams.uptime, func() float64 { return 1.5 })
	out := expose(t, r)

	for _, want := range []string{
		"# HELP obs_test_sent_total Events sent per mirror link.",
		"# TYPE obs_test_sent_total counter",
		`obs_test_sent_total{mirror="0"} 5`,
		`obs_test_sent_total{mirror="1"} 7`,
		"# TYPE obs_test_queue_depth gauge",
		`obs_test_queue_depth{site="central"} 3`,
		"# TYPE obs_test_delay_seconds histogram",
		`obs_test_delay_seconds_bucket{le="1.024e-06"} 0`,
		`obs_test_delay_seconds_bucket{le="0.016777216"} 1`,
		`obs_test_delay_seconds_bucket{le="0.033554432"} 2`,
		`obs_test_delay_seconds_bucket{le="34.359738368"} 2`,
		`obs_test_delay_seconds_bucket{le="+Inf"} 2`,
		"obs_test_delay_seconds_sum 0.03",
		"obs_test_delay_seconds_count 2",
		"# TYPE obs_test_stall_seconds_total counter",
		`obs_test_stall_seconds_total{mirror="0"} 2`,
		"# TYPE obs_test_batch_events histogram",
		`obs_test_batch_events_bucket{le="32"} 0`,
		`obs_test_batch_events_bucket{le="64"} 1`,
		`obs_test_batch_events_bucket{le="1.6777216e+07"} 1`,
		"obs_test_batch_events_sum 64",
		"obs_test_batch_events_count 1",
		"obs_test_uptime 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// What we write passes our own lint, against our own declarations.
	used := []*Family{fams.sent, fams.depth, fams.delay, fams.stall, fams.batch, fams.uptime}
	if err := LintFamilies(strings.NewReader(out), used); err != nil {
		t.Fatalf("self-lint failed: %v\n%s", err, out)
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter(fams.weird, L("path", `a\b"c`+"\n")).Inc()
	out := expose(t, r)
	if !strings.Contains(out, `path="a\\b\"c\n"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, `help with \\ and\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if err := LintFamilies(strings.NewReader(out), []*Family{fams.weird}); err != nil {
		t.Fatalf("self-lint failed: %v\n%s", err, out)
	}
}

// A function-backed series belongs to whoever registered last: a site
// restarted under its old label takes the series over.
func TestFuncLastRegistrationWins(t *testing.T) {
	r := NewRegistry()
	var old, fresh atomic.Uint64
	old.Store(9)
	fresh.Store(2)
	r.Func(fams.sent, Load(&old), L("site", "m1"))
	r.Func(fams.sent, Load(&fresh), L("site", "m1"))
	if out := expose(t, r); !strings.Contains(out, `obs_test_sent_total{site="m1"} 2`) || strings.Contains(out, " 9\n") {
		t.Fatalf("the later function should be the one exported:\n%s", out)
	}
}

// ValueHistogram resolves a declared family by name and hands out the
// owner's histogram.
func TestValueHistogramByName(t *testing.T) {
	r := NewRegistry()
	owner := r.Histogram(fams.batch, L("mirror", "0"))
	if r.ValueHistogram("obs_test_batch_events", L("mirror", "0")) != owner {
		t.Fatal("ValueHistogram must return the histogram the owner records into")
	}
	if msg := mustPanic(t, func() { r.ValueHistogram("pipeline_stage_seconds") }); !strings.Contains(msg, "another kind") {
		t.Fatalf("a seconds histogram resolved as a value histogram: %q", msg)
	}
	if msg := mustPanic(t, func() { r.ValueHistogram("obs_test_never_declared") }); !strings.Contains(msg, "not declared") {
		t.Fatalf("panic %q", msg)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	got := make([]*metrics.Counter, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = r.Counter(fams.sent, L("w", "x"))
			for j := 0; j < rounds; j++ {
				r.Counter(fams.sent, L("w", "x")).Inc()
				r.Gauge(fams.depth).Add(1)
				r.Histogram(fams.delay).Record(time.Microsecond)
				r.Func(fams.depth, func() float64 { return 1 }, L("fn", "x"))
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("goroutine %d got a different *metrics.Counter for the same series", i)
		}
	}
	if v := got[0].Value(); v != workers*rounds {
		t.Fatalf("counter = %d, want %d", v, workers*rounds)
	}
}

// TestHistogramExportConcurrent records one sample at a time and in
// batches from two goroutines while others take quantiles and scrape:
// every scrape lints clean, so each series' +Inf bucket equals its
// _count and its buckets are cumulative even mid-recording.
func TestHistogramExportConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(fams.delay, L("stage", "x"))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]time.Duration, 16)
			for i := 0; i < 2000; i++ {
				d := time.Duration(i*(g+1)) * time.Microsecond
				if g == 0 {
					h.Record(d)
					continue
				}
				for j := range batch {
					batch[j] = d + time.Duration(j)
				}
				h.RecordBatch(batch)
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h.Quantiles(50, 90, 99)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if err := LintPrometheus(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-recording scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if want := uint64(2000 + 2000*16); h.Count() != want {
		t.Fatalf("Count = %d, want %d", h.Count(), want)
	}
}
