package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind is what a metric family measures and how it is exported: the
// Prometheus TYPE of the exposition, which fixes the instrument types a
// Registry hands out for the family.
type Kind uint8

// Family kinds.
const (
	// KindCounter is a monotonic count: a *metrics.Counter, a
	// *metrics.DurationCounter (exported in seconds) or a Func.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level: a *metrics.Gauge or a Func.
	KindGauge
	// KindHistogram is a *metrics.Histogram. A family whose name ends
	// in _seconds records durations and exports seconds; any other
	// records a dimensionless value n as time.Duration(n) — bytes per
	// frame, events per batch — and exports the raw numbers.
	KindHistogram
)

// Type is the family's Prometheus TYPE.
func (k Kind) Type() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Family is one metric family's declaration — the only place its name,
// kind and HELP text are written down. Packages declare the families
// they own as package-level values (var famX = obs.Declare(...)) and
// pass them to the Registry methods; nothing else names a series.
type Family struct {
	Name string
	Kind Kind
	Help string
}

// seconds reports whether a histogram family records durations and
// exports seconds: the Prometheus base-unit rule, a name ending in
// _seconds.
func (f *Family) seconds() bool { return strings.HasSuffix(f.Name, "_seconds") }

// catalog holds every family declared by the packages linked into the
// binary (each declares at package initialization), so a tool that
// imports the system can enumerate what /metrics may report.
var catalog = struct {
	sync.Mutex
	byName map[string]*Family
}{byName: make(map[string]*Family)}

// Declare adds a family to the process-wide catalog and returns its
// declaration. Like expvar.Publish or http.Handle it belongs to package
// initialization and panics on a programming error: a name declared
// twice, an invalid name, or missing HELP.
func Declare(name string, k Kind, help string) *Family {
	catalog.Lock()
	defer catalog.Unlock()
	switch prev := catalog.byName[name]; {
	case prev != nil:
		panic(fmt.Sprintf("obs: family %s declared twice: %s %q, then %s %q", name, prev.Kind.Type(), prev.Help, k.Type(), help))
	case !validMetricName(name):
		panic(fmt.Sprintf("obs: family %q: invalid metric name", name))
	case help == "":
		panic(fmt.Sprintf("obs: family %s declared without HELP", name))
	}
	f := &Family{Name: name, Kind: k, Help: help}
	catalog.byName[name] = f
	return f
}

// Families returns every declaration, sorted by name.
func Families() []*Family {
	catalog.Lock()
	defer catalog.Unlock()
	out := make([]*Family, 0, len(catalog.byName))
	for _, f := range catalog.byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
