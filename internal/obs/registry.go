// Package obs is the observability layer: the catalog of metric family
// declarations, a per-site metrics registry with Prometheus text-format
// export, an event-lifecycle tracer that decomposes the paper's "update
// delay" into per-stage latencies, and an audit log recording every
// adaptation decision with the monitored-variable values that caused
// it. Each site (central or mirror) owns one Registry; the HTTP front
// exports it at /metrics.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"adaptmirror/internal/metrics"
)

// Label is one metric label pair.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one labeled time series of a family: an instrument the
// registry created, or a function read at scrape time. Every field is
// guarded by Registry.mu; the instruments synchronize themselves.
type series struct {
	labels []Label // sorted by key
	key    string  // canonical rendering of labels (series identity)
	inst   any     // *metrics.Counter, *Gauge, *DurationCounter or *Histogram; nil when fn-backed
	fn     func() float64
}

// Registry is one site's set of labeled series, keyed by family
// declaration. It creates every instrument it exports: asking twice for
// the same (family, labels) returns the same pointer, so an owner
// resolves its instruments once at construction and the hot path is the
// instrument's own atomic. Using a family as another kind than it
// declares is a programming error and panics. All methods are safe for
// concurrent use, and on a nil receiver every method is a no-op or
// returns a fresh unregistered instrument, so instrumented code never
// needs nil checks.
type Registry struct {
	mu       sync.Mutex
	families map[*Family]map[string]*series // by canonical label key
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[*Family]map[string]*series)}
}

// canonLabels sorts a copy of ls by key and renders the series
// identity string.
func canonLabels(ls []Label) ([]Label, string) {
	if len(ls) == 0 {
		return nil, ""
	}
	out := make([]Label, len(ls))
	copy(out, ls)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	var b strings.Builder
	for i, l := range out {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return out, b.String()
}

// update runs fn under r.mu on the series of f with labels ls, creating
// the series first if needed. kindOK is the caller's check that it may
// use f's kind.
func (r *Registry) update(f *Family, kindOK bool, ls []Label, fn func(*series)) {
	if !kindOK {
		panic(fmt.Sprintf("obs: family %s is declared %s and was used as another kind", f.Name, f.Kind.Type()))
	}
	if r == nil {
		return
	}
	labels, key := canonLabels(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[f]
	if fam == nil {
		fam = make(map[string]*series)
		r.families[f] = fam
	}
	s := fam[key]
	if s == nil {
		s = &series{labels: labels, key: key}
		fam[key] = s
	}
	fn(s)
}

// instrument is the one get-or-create: it returns the *T behind
// (f, ls), installing a fresh one under r.mu the first time (or when
// the series was function-backed), so every caller gets the same
// pointer. On a nil registry the fresh one is the answer.
func instrument[T any](r *Registry, f *Family, kindOK bool, ls []Label) *T {
	inst := new(T)
	r.update(f, kindOK, ls, func(s *series) {
		switch have := s.inst.(type) {
		case *T:
			inst = have
		case nil:
			s.inst, s.fn = inst, nil
		default:
			panic(fmt.Sprintf("obs: series %s{%s} holds a %T and was used as a %T", f.Name, s.key, have, inst))
		}
	})
	return inst
}

// Counter returns the counter of a KindCounter family for the given
// labels.
func (r *Registry) Counter(f *Family, ls ...Label) *metrics.Counter {
	return instrument[metrics.Counter](r, f, f.Kind == KindCounter, ls)
}

// Gauge returns the gauge of a KindGauge family for the given labels.
func (r *Registry) Gauge(f *Family, ls ...Label) *metrics.Gauge {
	return instrument[metrics.Gauge](r, f, f.Kind == KindGauge, ls)
}

// DurationCounter returns the cumulative-duration counter, exported in
// seconds, of a KindCounter family for the given labels.
func (r *Registry) DurationCounter(f *Family, ls ...Label) *metrics.DurationCounter {
	return instrument[metrics.DurationCounter](r, f, f.Kind == KindCounter, ls)
}

// Histogram returns the histogram of a KindHistogram family for the
// given labels.
func (r *Registry) Histogram(f *Family, ls ...Label) *metrics.Histogram {
	return instrument[metrics.Histogram](r, f, f.Kind == KindHistogram, ls)
}

// ValueHistogram resolves a declared KindHistogram family of values
// (not _seconds) by name: the way in for callers outside the declaring
// package (the wall-clock benchmark reads the link senders' batch-size
// histograms through it). It returns the same histogram the owner
// records into.
func (r *Registry) ValueHistogram(name string, ls ...Label) *metrics.Histogram {
	catalog.Lock()
	f := catalog.byName[name]
	catalog.Unlock()
	if f == nil {
		panic(fmt.Sprintf("obs: family %s is used but not declared", name))
	}
	return instrument[metrics.Histogram](r, f, f.Kind == KindHistogram && !f.seconds(), ls)
}

// Func exports a value that already lives elsewhere: fn is read at
// scrape time as the series of a counter or gauge family (monotonically
// non-decreasing for a counter). Registering the same (family, labels)
// again replaces the function, so a site restarted under its old label
// takes its series over.
func (r *Registry) Func(f *Family, fn func() float64, ls ...Label) {
	r.update(f, f.Kind != KindHistogram, ls, func(s *series) { s.fn, s.inst = fn, nil })
}

// Load adapts an owner's atomic count to Func.
func Load(v *atomic.Uint64) func() float64 {
	return func() float64 { return float64(v.Load()) }
}

// Escaping of label values and HELP text per the Prometheus text
// exposition format.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }
func escapeHelp(v string) string       { return helpEscaper.Replace(v) }

// renderLabels renders a label set (plus optional extra pairs) as
// {k="v",...}, or "" when empty.
func renderLabels(ls []Label, extra ...Label) string {
	if len(ls)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range append(ls[:len(ls):len(ls)], extra...) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every family with at least one series in the
// Prometheus text exposition format (version 0.0.4): families sorted by
// name, each with its declared HELP and TYPE, series by label set,
// histograms as cumulative _bucket counts plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Copy the series out under the lock; values are read after it is
	// dropped, because a Func may take its owner's locks.
	type snapshot struct {
		decl   *Family
		series []series
	}
	r.mu.Lock()
	fams := make([]snapshot, 0, len(r.families))
	for decl, fam := range r.families {
		srs := make([]series, 0, len(fam))
		for _, s := range fam {
			srs = append(srs, *s)
		}
		fams = append(fams, snapshot{decl: decl, series: srs})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].decl.Name < fams[j].decl.Name })

	for _, f := range fams {
		name := f.decl.Name
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			name, escapeHelp(f.decl.Help), name, f.decl.Kind.Type()); err != nil {
			return err
		}
		for i := range f.series {
			s := &f.series[i]
			var value string
			switch inst := s.inst.(type) {
			case nil:
				value = formatFloat(s.fn())
			case *metrics.Counter:
				value = strconv.FormatUint(inst.Value(), 10)
			case *metrics.Gauge:
				value = strconv.FormatInt(inst.Value(), 10)
			case *metrics.DurationCounter:
				value = formatFloat(inst.Value().Seconds())
			case *metrics.Histogram:
				if err := writeHistogram(w, f.decl, s.labels, inst); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(s.labels), value); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series from one snapshot: the
// cumulative _bucket count at each le bound and at +Inf, then _sum and
// _count. The bounds are powers of two, so every count is exact: 2^10
// ns (~1 µs) to 2^35 ns (~34 s), exported in seconds, for a _seconds
// family; 1 to 2^24 for a family of raw values.
func writeHistogram(w io.Writer, f *Family, labels []Label, h *metrics.Histogram) error {
	lo, hi, unit := 0, 24, 1.0
	if f.seconds() {
		lo, hi, unit = 10, 35, 1e9
	}
	le, count, sum := h.PowerOfTwoCounts()
	for k := lo; k <= hi; k++ {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.Name, renderLabels(labels, L("le", formatFloat(float64(uint64(1)<<k)/unit))), le[k]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %s\n%s_count%s %d\n",
		f.Name, renderLabels(labels, L("le", "+Inf")), count,
		f.Name, renderLabels(labels), formatFloat(float64(sum)/unit),
		f.Name, renderLabels(labels), count)
	return err
}
