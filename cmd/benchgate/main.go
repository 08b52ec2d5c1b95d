// Command benchgate is a self-contained statistical gate over `go test
// -bench` output — a minimal stand-in for benchstat that needs no
// installation:
//
//	benchgate -compare old.txt new.txt
//	    Pair benchmarks by name and compare their ns/op samples with a
//	    two-sided Mann-Whitney U test (normal approximation with tie
//	    correction, as benchstat uses for n this small). The gate fails
//	    when a benchmark got significantly slower (p < alpha) by more
//	    than -max-regress percent of the old median. Sub-benchmark
//	    suffixes given via -old-sub/-new-sub remap names so the two
//	    sides of one file can be compared:
//
//	benchgate -compare f.txt f.txt -old-sub legacy -new-sub columnar
//	    Compares BenchmarkX/legacy/... in f.txt against
//	    BenchmarkX/columnar/... in the same file.
//
// Exit status 0 = gate passed, 1 = gate failed, 2 = usage/parse error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark result line.
type sample struct {
	nsPerOp float64
	// fields holds every unit-suffixed value on the line ("B/op",
	// custom b.ReportMetric units like "bytes_shipped/op", ...).
	fields map[string]float64
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)
var metricField = regexp.MustCompile(`([\d.]+(?:[eE][+-]?\d+)?) (\S+)`)

// parseFile reads `go test -bench` output into name → samples.
func parseFile(path string) (map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]sample)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		s := sample{nsPerOp: ns}
		for _, fm := range metricField.FindAllStringSubmatch(m[3], -1) {
			if v, err := strconv.ParseFloat(fm[1], 64); err == nil {
				if s.fields == nil {
					s.fields = make(map[string]float64)
				}
				s.fields[fm[2]] = v
			}
		}
		out[m[1]] = append(out[m[1]], s)
	}
	return out, sc.Err()
}

// stripSub removes one path component from a benchmark name
// (Benchmark/X/sub/Y → Benchmark/X/Y) so paired variants can be
// matched; returns "" when the component is absent.
func stripSub(name, sub string) string {
	parts := strings.Split(name, "/")
	for i, p := range parts {
		if p == sub {
			return strings.Join(append(parts[:i:i], parts[i+1:]...), "/")
		}
	}
	return ""
}

// remap rewrites every benchmark name by stripping the sub component,
// dropping benchmarks that do not carry it.
func remap(in map[string][]sample, sub string) map[string][]sample {
	if sub == "" {
		return in
	}
	out := make(map[string][]sample)
	for name, ss := range in {
		if k := stripSub(name, sub); k != "" {
			out[k] = append(out[k], ss...)
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mannWhitneyP returns the two-sided p-value of the Mann-Whitney U
// test for samples a and b, using the normal approximation with tie
// correction and continuity correction — adequate for the n≥5 runs
// the gate requires, where the exact tables and the approximation
// agree on the 0.05 decision boundary.
func mannWhitneyP(a, b []float64) float64 {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks with tie bookkeeping.
	ranks := make([]float64, len(all))
	tieTerm := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u := r1 - n1*(n1+1)/2
	mean := n1 * n2 / 2
	n := n1 + n2
	variance := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if variance <= 0 {
		// All observations tied: no evidence of difference.
		return 1
	}
	z := math.Abs(u-mean) - 0.5 // continuity correction
	if z < 0 {
		z = 0
	}
	z /= math.Sqrt(variance)
	return 2 * (1 - stdNormCDF(z))
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

func main() {
	var (
		compare    = flag.Bool("compare", false, "compare two bench files (args: old.txt new.txt)")
		oldSub     = flag.String("old-sub", "", "sub-benchmark component naming the old side")
		newSub     = flag.String("new-sub", "", "sub-benchmark component naming the new side")
		alpha      = flag.Float64("alpha", 0.05, "significance level for the U test")
		maxRegress = flag.Float64("max-regress", 0, "tolerated median slowdown in percent before a significant regression fails the gate")
		minRuns    = flag.Int("min-runs", 5, "minimum samples per side for a statistical verdict")
		ratioMet   = flag.String("ratio-metric", "", "with -compare: a reported metric unit (e.g. bytes_shipped/op) whose old/new median ratio is gated")
		minRatio   = flag.Float64("min-ratio", 1, "with -ratio-metric: minimum required old/new median ratio")
	)
	flag.Parse()
	args := flag.Args()

	if !*compare {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "benchgate: -compare needs old.txt new.txt")
		os.Exit(2)
	}
	oldSet, err := parseFile(args[0])
	var newSet map[string][]sample
	if err == nil {
		newSet, err = parseFile(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	oldR, newR := remap(oldSet, *oldSub), remap(newSet, *newSub)
	fail := runCompare(oldR, newR, *alpha, *maxRegress, *minRuns)
	if *ratioMet != "" {
		fail = runRatio(oldR, newR, *ratioMet, *minRatio) || fail
	}
	if fail {
		os.Exit(1)
	}
}

func runCompare(oldSet, newSet map[string][]sample, alpha, maxRegress float64, minRuns int) (fail bool) {
	names := make([]string, 0, len(oldSet))
	for name := range oldSet {
		if _, ok := newSet[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmarks in common")
		return true
	}
	sort.Strings(names)
	fmt.Printf("%-50s %12s %12s %8s %9s  verdict\n", "benchmark", "old ns/op", "new ns/op", "delta", "p")
	for _, name := range names {
		var o, n []float64
		for _, s := range oldSet[name] {
			o = append(o, s.nsPerOp)
		}
		for _, s := range newSet[name] {
			n = append(n, s.nsPerOp)
		}
		om, nm := median(o), median(n)
		delta := (nm - om) / om * 100
		p := mannWhitneyP(o, n)
		verdict := "~"
		switch {
		case len(o) < minRuns || len(n) < minRuns:
			verdict = fmt.Sprintf("too few runs (%d vs %d, need %d)", len(o), len(n), minRuns)
			fail = true
		case p < alpha && delta > maxRegress:
			verdict = "REGRESSION"
			fail = true
		case p < alpha && delta < 0:
			verdict = "improved"
		case p < alpha:
			verdict = "slower (within tolerance)"
		}
		fmt.Printf("%-50s %12.1f %12.1f %+7.1f%% %9.4f  %s\n", name, om, nm, delta, p, verdict)
	}
	return fail
}

// runRatio gates a reported metric (b.ReportMetric units) on its
// old/new median ratio: the gate fails when old < minRatio × new —
// e.g. -ratio-metric bytes_shipped/op -min-ratio 5 demands the new
// side ship at least 5x fewer bytes than the old.
func runRatio(oldSet, newSet map[string][]sample, metric string, minRatio float64) (fail bool) {
	names := make([]string, 0, len(oldSet))
	for name := range oldSet {
		if _, ok := newSet[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	collect := func(ss []sample) []float64 {
		var out []float64
		for _, s := range ss {
			if v, ok := s.fields[metric]; ok {
				out = append(out, v)
			}
		}
		return out
	}
	fmt.Printf("%-50s %14s %14s %8s  verdict (%s, min ratio %gx)\n",
		"benchmark", "old", "new", "ratio", metric, minRatio)
	for _, name := range names {
		o, n := collect(oldSet[name]), collect(newSet[name])
		if len(o) == 0 || len(n) == 0 {
			fmt.Printf("%-50s missing %s samples (%d old, %d new)\n", name, metric, len(o), len(n))
			fail = true
			continue
		}
		om, nm := median(o), median(n)
		ratio := om / nm
		verdict := "ok"
		if !(ratio >= minRatio) {
			verdict = "BELOW MINIMUM"
			fail = true
		}
		fmt.Printf("%-50s %14.1f %14.1f %7.1fx  %s\n", name, om, nm, ratio, verdict)
	}
	return fail
}
