package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// LintPrometheus validates a Prometheus text-format (version 0.0.4)
// exposition: metric and label naming, HELP/TYPE placement, sample
// syntax (including label-value escaping), family grouping,
// duplicate-series detection, and histogram semantics (numeric,
// strictly ascending le bounds, cumulative bucket counts, a +Inf bucket
// equal to _count, _sum and _count present). It returns nil for a
// conforming exposition, or an error listing every violation found.
func LintPrometheus(r io.Reader) error {
	x, err := parseExposition(r)
	if err != nil {
		return err
	}
	return x.err()
}

// LintFamilies is LintPrometheus plus conformance to the declarations:
// every family in the exposition is declared and carries its declared
// TYPE and HELP, and every declared family has at least one series.
// `make metrics-lint` scrapes a live /metrics endpoint through this
// with Families().
func LintFamilies(r io.Reader, declared []*Family) error {
	x, err := parseExposition(r)
	if err != nil {
		return err
	}
	var errs []string
	byName := make(map[string]*Family, len(declared))
	for _, f := range declared {
		byName[f.Name] = f
		if !x.sampled[f.Name] {
			errs = append(errs, fmt.Sprintf("declared family %s has no series", f.Name))
		}
	}
	for name := range x.sampled {
		f := byName[name]
		switch {
		case f == nil:
			errs = append(errs, fmt.Sprintf("family %s is not declared", name))
		case x.types[name] != f.Kind.Type():
			errs = append(errs, fmt.Sprintf("family %s has TYPE %q, declared %s", name, x.types[name], f.Kind.Type()))
		case x.helps[name] != escapeHelp(f.Help):
			errs = append(errs, fmt.Sprintf("family %s has HELP %q, declared %q", name, x.helps[name], f.Help))
		}
	}
	sort.Strings(errs) // map order is random; the report should not be
	x.errs = append(x.errs, errs...)
	return x.err()
}

// exposition is what the lint learns from one scrape.
type exposition struct {
	types   map[string]string // family → TYPE
	helps   map[string]string // family → HELP text, still escaped
	sampled map[string]bool   // families with at least one sample
	errs    []string
}

func (x *exposition) err() error {
	if len(x.errs) == 0 {
		return nil
	}
	return fmt.Errorf("obs: lint: %d violation(s):\n  %s", len(x.errs), strings.Join(x.errs, "\n  "))
}

// parseExposition reads a scrape and collects its format violations.
func parseExposition(r io.Reader) (*exposition, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: lint: reading exposition: %w", err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("obs: lint: empty exposition")
	}
	x := &exposition{
		types:   make(map[string]string),
		helps:   make(map[string]string),
		sampled: make(map[string]bool),
	}
	fail := func(line int, format string, args ...any) {
		x.errs = append(x.errs, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	if data[len(data)-1] != '\n' {
		x.errs = append(x.errs, "exposition must end with a newline")
	}

	closed := make(map[string]bool) // families whose sample block ended
	series := make(map[string]bool) // name+labels seen
	current := ""                   // family currently emitting samples
	hists := make(map[string]*histSeries)
	var histOrder []*histSeries

	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validMetricName(name) {
				fail(ln, "invalid metric name %q in %s line", name, fields[1])
				continue
			}
			if fields[1] == "HELP" {
				if len(fields) == 4 {
					x.helps[name] = fields[3]
				}
				continue
			}
			if len(fields) != 4 {
				fail(ln, "TYPE line for %s missing type", name)
				continue
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail(ln, "invalid type %q for %s", fields[3], name)
			}
			if _, dup := x.types[name]; dup {
				fail(ln, "second TYPE line for %s", name)
			}
			if x.sampled[name] {
				fail(ln, "TYPE line for %s after its samples", name)
			}
			x.types[name] = fields[3]
			continue
		}

		name, labels, value, ok := parseSample(line, ln, fail)
		if !ok {
			continue
		}
		if !validMetricName(name) {
			fail(ln, "invalid metric name %q", name)
			continue
		}
		fam := familyOf(name, x.types)
		x.sampled[fam] = true
		if fam != current {
			if closed[fam] {
				fail(ln, "samples of %s are not contiguous", fam)
			}
			if current != "" {
				closed[current] = true
			}
			current = fam
		}
		key := name + "{" + strings.Join(labels, ",") + "}"
		if series[key] {
			fail(ln, "duplicate series %s", key)
		}
		series[key] = true
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			switch value {
			case "+Inf", "-Inf", "NaN", "Nan":
			default:
				fail(ln, "invalid sample value %q for %s", value, name)
			}
		}
		if x.types[fam] != "histogram" {
			continue
		}
		le, rest := "", labels[:0:0]
		for _, l := range labels {
			if b, ok := strings.CutPrefix(l, `le="`); ok {
				le = strings.TrimSuffix(b, `"`)
			} else {
				rest = append(rest, l)
			}
		}
		hkey := fam + "{" + strings.Join(rest, ",") + "}"
		h := hists[hkey]
		if h == nil {
			h = &histSeries{key: hkey, le: math.Inf(-1)}
			hists[hkey] = h
			histOrder = append(histOrder, h)
		}
		switch name {
		case fam + "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			switch {
			case err != nil:
				fail(ln, "histogram %s has a bucket with le %q, not a number", hkey, le)
				continue
			case bound <= h.le:
				fail(ln, "histogram %s: bucket le=%q is not above the previous bucket's", hkey, le)
			case v < h.cum:
				fail(ln, "histogram %s: bucket le=%q counts %s, fewer than the previous bucket: not cumulative", hkey, le, value)
			}
			h.le, h.cum = bound, v
		case fam + "_sum":
			h.hasSum = true
		case fam + "_count":
			h.hasCount, h.count = true, v
		}
	}
	for _, h := range histOrder {
		// Bounds ascend strictly, so +Inf can only be the last bucket.
		if !math.IsInf(h.le, 1) {
			x.errs = append(x.errs, fmt.Sprintf("histogram %s has no le=\"+Inf\" bucket", h.key))
		} else if h.hasCount && h.cum != h.count {
			x.errs = append(x.errs, fmt.Sprintf("histogram %s: +Inf bucket %v differs from _count %v", h.key, h.cum, h.count))
		}
		if !h.hasSum {
			x.errs = append(x.errs, fmt.Sprintf("histogram %s has no _sum", h.key))
		}
		if !h.hasCount {
			x.errs = append(x.errs, fmt.Sprintf("histogram %s has no _count", h.key))
		}
	}
	return x, nil
}

// histSeries is what the lint learns about one histogram series — a
// family and its labels other than le — across its _bucket, _sum and
// _count samples.
type histSeries struct {
	key              string
	le, cum          float64 // the last bucket's bound and count
	count            float64
	hasSum, hasCount bool
}

// familyOf maps a sample name to its metric family: summary and
// histogram samples use the base name plus _sum/_count/_bucket.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if t, ok := types[base]; ok && (t == "summary" || t == "histogram") {
			return base
		}
	}
	return name
}

// validMetricName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]* and rejects the
// reserved __ prefix.
func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// parseSample parses `name[{labels}] value [timestamp]`, reporting
// violations through fail. labels come back as rendered k="v" pairs
// for series identity.
func parseSample(line string, ln int, fail func(int, string, ...any)) (name string, labels []string, value string, ok bool) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		fail(ln, "sample %q has no value", line)
		return "", nil, "", false
	}
	name = rest[:end]
	rest = rest[end:]

	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ",")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				fail(ln, "unterminated label set in %q", line)
				return "", nil, "", false
			}
			lname := rest[:eq]
			if !validLabelName(lname) {
				fail(ln, "invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				fail(ln, "label %s value is not quoted", lname)
				return "", nil, "", false
			}
			lval, remain, verr := scanLabelValue(rest[1:])
			if verr != "" {
				fail(ln, "label %s: %s", lname, verr)
				return "", nil, "", false
			}
			labels = append(labels, lname+`="`+lval+`"`)
			rest = remain
		}
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		fail(ln, "sample %q must be 'value [timestamp]' after the name, got %q", line, rest)
		return "", nil, "", false
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			fail(ln, "invalid timestamp %q", fields[1])
		}
	}
	return name, labels, fields[0], true
}

// scanLabelValue consumes a quoted label value body (after the opening
// quote), validating the \\, \", \n escapes. It returns the raw
// (still-escaped) value and the remainder after the closing quote.
func scanLabelValue(s string) (val, rest, errMsg string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", "dangling escape"
			}
			switch s[i+1] {
			case '\\', '"', 'n':
				i++
			default:
				return "", "", fmt.Sprintf("invalid escape \\%c", s[i+1])
			}
		case '"':
			return s[:i], s[i+1:], ""
		}
	}
	return "", "", "unterminated label value"
}
