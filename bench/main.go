// Command bench is the repository's wall-clock benchmark: it drives an
// in-process central + 2 mirrors over loopback TCP with the cost model
// off and measures the real pipeline from outside. BENCHMARK.json at
// the repository root declares its workloads and metrics; README.md
// beside this file explains the harness rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// traceDir receives trace_<workload>.json; relative to the directory
// the benchmark is started from (the repository root).
var traceDir = "bench/out"

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 20, "measured seconds per run")
		trace     = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default: both")
		layers    = flag.Bool("layers", false, "only call each layer's functions directly, 1 s each, and print ns/op")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric against its bound")
		quick     = flag.Bool("quick", false, "one-second smoke of each workload at tiny rates; timings mean nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var specs []spec
	if *workload == "all" {
		specs = workloads
	} else if sp, ok := findWorkload(*workload); ok {
		specs = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	// setup_s is the median of the last five of eight set-ups: the
	// first three of a fresh process also pay for growing the heap to
	// its working size (twice the time), and with fewer repeats the
	// median landed on one of those in half the runs.
	o := runOpts{seed: *seed, seconds: *seconds, setups: 8, cold: 3, layerD: 30 * time.Millisecond}
	if *quick {
		for i := range specs {
			specs[i] = specs[i].quick()
		}
		o.seconds, o.setups, o.cold, o.layerD = 1, 1, 0, time.Millisecond
	}
	fmt.Printf("# bench: %s, GOMAXPROCS %d, %s/%s, seed %d, %.0f s per run\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, o.seed, o.seconds)

	ok := true
	switch {
	case *layers:
		for _, sp := range specs {
			printLayers(os.Stdout, sp, runLayers(sp, o.seed, time.Second))
		}
	case *selfcheck:
		ok = selfCheck(os.Stdout, specs, o)
	default:
		for _, sp := range specs {
			if !runAndReport(os.Stdout, sp, o, *trace) {
				ok = false
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runAndReport runs one workload in the requested mode(s), prints the
// metrics by name, and ends with the one-line JSON result: end-to-end
// metrics for an untraced run, per-layer metrics for a traced one. It
// reports whether outputs were correct and no operation failed.
func runAndReport(w io.Writer, sp spec, o runOpts, trace int) bool {
	ok := true
	var untraced *result
	if trace != 1 {
		o.trace = false
		res, err := runWorkload(sp, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return false
		}
		untraced = res
		printResult(w, res, endToEnd)
		ok = finish(w, res, endToEnd) && ok
	}
	if trace != 0 {
		o.trace = true
		if untraced != nil {
			o.seconds = math.Min(o.seconds, 10)
		}
		res, err := runWorkload(sp, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (traced): %v\n", sp.name, err)
			return false
		}
		printResult(w, res, perLayer)
		printTraceCheck(w, res, untraced)
		ok = finish(w, res, perLayer) && ok
	}
	return ok
}

// finish prints a run's problems and its JSON line.
func finish(w io.Writer, res *result, defs []metricDef) bool {
	for _, p := range res.Problems {
		fmt.Fprintf(w, "INCORRECT %s: %s\n", res.Workload, p)
	}
	for _, p := range res.Invalid {
		fmt.Fprintf(w, "UNRESOLVED %s: %s\n", res.Workload, p)
	}
	metrics, missing := pick(defs, res.Vals)
	for _, name := range missing {
		fmt.Fprintf(w, "INCORRECT %s: metric %s was not produced\n", res.Workload, name)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct() && len(missing) == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.correct() && len(missing) == 0 && res.Failed == 0
}

// printResult prints the listed metrics of a run, one per line, with
// unit and — for segment-median percentiles — the extreme segments and
// the sample count.
func printResult(w io.Writer, res *result, defs []metricDef) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n## %s (%s, seed %d, %.0f s): attempted %d, failed %d, failed_share %.6f\n",
		res.Workload, mode, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Vals["failed_share"])
	fmt.Fprintf(w, "   op_* times: %s\n", opWhat[res.Workload])
	for _, d := range defs {
		v, ok := res.Vals[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-44s %14.4f %-9s", d.Name, v, d.Unit)
		if st, ok := res.Stats[d.Name]; ok {
			fmt.Fprintf(w, " segments %.4f..%.4f, 10%%..90%% %.4f..%.4f (%d), samples %d",
				st.Min, st.Max, st.Lo, st.Hi, st.Segs, st.Samples)
		}
		fmt.Fprintln(w)
	}
	if res.TracePath != "" {
		fmt.Fprintf(w, "trace written to %s\n", res.TracePath)
	}
}

// printTraceCheck sets the traced run's spans against its own metrics
// and, when an untraced run of the same workload is at hand, the
// traced primary metric against the untraced one.
func printTraceCheck(w io.Writer, res, untraced *result) {
	if v, ok := res.Vals["trace.emit_p50_ms"]; ok {
		fmt.Fprintf(w, "trace check: emit spans p50 %.4f ms vs update_delay_p50_ms %.4f; mirror_apply spans p99 %.4f ms vs whole-window lag p99 %.4f (median of segments: mirror_lag_p99_ms %.4f)\n",
			v, res.Vals["update_delay_p50_ms"], res.Vals["trace.mirror_apply_p99_ms"], res.Vals["trace.lag_p99_whole_ms"], res.Vals["mirror_lag_p99_ms"])
	}
	if untraced != nil {
		for _, name := range []string{"update_delay_p50_ms", "op_p50_ms", "events_per_s"} {
			a, b := untraced.Vals[name], res.Vals[name]
			fmt.Fprintf(w, "traced vs untraced %-22s %12.4f vs %12.4f (%+.2f%%)\n", name, b, a, 100*ratio(b-a, a))
		}
	}
}

func printLayers(w io.Writer, sp spec, vals map[string]float64) {
	fmt.Fprintf(w, "\n## layers on %s inputs (%d B positions, %d flights), single-threaded, batches of %d\n",
		sp.name, sp.posSize, sp.flights, layerBatch)
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := ""
		for _, d := range perLayer {
			if d.Name == name {
				unit = d.Unit
			}
		}
		fmt.Fprintf(w, "%-44s %14.2f %s\n", name, vals[name], unit)
	}
}

// selfCheck runs every workload twice back to back and holds each
// end-to-end metric's pair against its bound. A run with a failed
// operation, wrong outputs, a late generator or a p50 whose segments
// disagree fails the check rather than lending its numbers to it.
func selfCheck(w io.Writer, specs []spec, o runOpts) bool {
	ok := true
	for _, sp := range specs {
		var runs [2]*result
		for i := range runs {
			res, err := runWorkload(sp, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return false
			}
			printResult(w, res, endToEnd)
			if !finish(w, res, endToEnd) || len(res.Invalid) > 0 {
				ok = false
			}
			runs[i] = res
		}
		fmt.Fprintf(w, "\n## selfcheck %s\n", sp.name)
		for _, d := range endToEnd {
			a, b := runs[0].Vals[d.Name], runs[1].Vals[d.Name]
			rel := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if !(rel <= d.Bound) {
				verdict = "DIFFERS"
				ok = false
			}
			fmt.Fprintf(w, "%-24s %14.4f %14.4f %-9s diff %6.2f%% bound %4.0f%% %s\n",
				d.Name, a, b, d.Unit, 100*rel, 100*d.Bound, verdict)
		}
	}
	return ok
}
