package figures

import (
	"math"
	"strings"
	"testing"
	"time"

	"adaptmirror/internal/cluster"
)

// The Quick scale keeps these smoke tests fast; shape assertions are
// deliberately loose (the strong checks run at Full scale via
// cmd/benchrunner and are recorded in EXPERIMENTS.md).

func TestFig4SmokeShape(t *testing.T) {
	// The shape compares the elapsed times of two ~10 ms runs that lie
	// ~2 ms apart, so one scheduling stall (packages of `go test ./...`
	// share the cores) inverts it: a wrong shape fails only when it
	// shows three times in a row.
	const attempts = 3
	for attempt := 1; ; attempt++ {
		fig, err := Fig4(Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) != 3 {
			t.Fatalf("series = %d, want 3", len(fig.Series))
		}
		byName := map[string]Series{}
		for _, s := range fig.Series {
			if len(s.X) != 9 {
				t.Fatalf("%s has %d points, want 9", s.Name, len(s.X))
			}
			byName[s.Name] = s
		}
		// Simple mirroring must cost more than no mirroring at the
		// largest size (where the effect is clearest), and execution
		// time grows with event size.
		last := len(byName["simple"].Y) - 1
		simple, none := byName["simple"].Y[last], byName["no-mirroring"].Y
		if simple > none[last] && none[last] > none[0] {
			return
		}
		if attempt == attempts {
			t.Fatalf("%d times in a row: simple (%v) not slower than no-mirroring (%v) at 8KB, or no-mirroring not slower at 8KB than at 0 B (%v)",
				attempts, simple, none[last], none[0])
		}
	}
}

func TestFig5SmokeShape(t *testing.T) {
	fig, err := Fig5(Quick)
	if err != nil {
		t.Fatal(err)
	}
	ys := fig.Series[0].Y
	if len(ys) != 5 {
		t.Fatalf("points = %d, want 5 (1,2,4,6,8 mirrors)", len(ys))
	}
	for i, y := range ys {
		if y <= 0 || math.IsNaN(y) {
			t.Fatalf("point %d = %v, want a positive execution time", i, y)
		}
	}
	// The figure's shape — every added mirror costs the central more —
	// is asserted on what the seed determines, not on the elapsed time
	// of two ~20 ms runs: each mirror is sent its own copy of every
	// mirrored event, so the fan-out work grows exactly with the count.
	fanout := func(mirrors int) (events, bytes uint64) {
		opts := Quick.base(1000)
		opts.Mirrors = mirrors
		res, err := cluster.RunExperiment(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Central.Mirrored, res.LinkSentBytes
	}
	events1, bytes1 := fanout(1)
	events8, bytes8 := fanout(8)
	if events1 == 0 || events8 != events1 {
		t.Fatalf("mirrored events: %d with 1 mirror, %d with 8; want the same non-zero stream", events1, events8)
	}
	if bytes1 == 0 || bytes8 != 8*bytes1 {
		t.Fatalf("fan-out bytes: %d with 1 mirror, %d with 8; want exactly 8x", bytes1, bytes8)
	}
}

func TestFig6Smoke(t *testing.T) {
	fig, err := Fig6(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y <= 0 || math.IsNaN(y) {
				t.Fatalf("%s has non-positive point", s.Name)
			}
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	fig, err := Fig7(Quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	if n := len(byName["simple"].Y); n != len(fig78Loads) {
		t.Fatalf("points = %d, want %d", n, len(fig78Loads))
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y <= 0 || math.IsNaN(y) {
				t.Fatalf("%s has non-positive point", s.Name)
			}
		}
	}
	// What makes selective mirroring cheaper is asserted on what the
	// seed determines, not on the elapsed time of sub-5 ms runs (the
	// timed shape runs at Full scale and is recorded in EXPERIMENTS.md):
	// it sends the mirror a fraction of the same stream.
	mirrored := func(overwrite int) uint64 {
		opts := Quick.base(1000)
		opts.Mirrors = 1
		opts.Selective = overwrite
		res, err := cluster.RunExperiment(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Central.Mirrored
	}
	if all, kept := mirrored(0), mirrored(Quick.SelectiveL); kept == 0 || kept >= all {
		t.Fatalf("selective mirrored %d of the %d events simple mirroring sends; want a non-empty fraction", kept, all)
	}
}

func TestFig8Smoke(t *testing.T) {
	fig, err := Fig8(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 4 {
			t.Fatalf("%s points = %d, want 4", s.Name, len(s.Y))
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	p := Fig9Params{
		EventRate:        2000,
		RunSeconds:       1,
		BurstBase:        10,
		BurstPeak:        200,
		Period:           500 * time.Millisecond,
		BurstLen:         150 * time.Millisecond,
		Bin:              100 * time.Millisecond,
		PendingPrimary:   5,
		PendingSecondary: 2,
		EventSize:        256,
		Repeats:          1,
	}
	fig, err := Fig9(Quick, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2 (no-adaptation, with-adaptation)", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) == 0 {
			t.Fatalf("%s has no bins", s.Name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "Test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{30, 40}},
		},
	}
	out := Table(fig)
	for _, want := range []string{"FIGX", "Test", "a", "b", "10.0000", "40.0000", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2 header comments + 1 column header + 3 distinct x rows.
	if len(lines) != 6 {
		t.Fatalf("table has %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestRunMedianOddAndSingle(t *testing.T) {
	s := Quick
	s.Repeats = 1
	opts := s.base(128)
	opts.NoMirror = true
	if _, err := s.runMedian(opts); err != nil {
		t.Fatal(err)
	}
}

func TestPlotRendering(t *testing.T) {
	fig := Figure{
		ID: "figY", Title: "Plot test", XLabel: "size", YLabel: "time",
		Series: []Series{
			{Name: "a", X: []float64{0, 1, 2}, Y: []float64{1, 2, 3}},
			{Name: "b", X: []float64{0, 1, 2}, Y: []float64{3, 2, 1}},
		},
	}
	out := Plot(fig, 40, 10)
	for _, want := range []string{"FIGY", "Plot test", "o = a", "+ = b", "x: size, y: time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	// The crossing point of the two series renders as an overlap.
	if !strings.Contains(out, "&") && !strings.Contains(out, "o") {
		t.Fatalf("plot has no markers:\n%s", out)
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	out := Plot(Figure{ID: "e", Title: "empty"}, 0, 0)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty plot = %q", out)
	}
	// Single point: degenerate ranges must not divide by zero.
	one := Figure{ID: "one", Series: []Series{{Name: "s", X: []float64{5}, Y: []float64{7}}}}
	if out := Plot(one, 20, 8); !strings.Contains(out, "o") {
		t.Fatalf("single-point plot missing marker:\n%s", out)
	}
	// NaN-only series behaves as empty.
	nan := Figure{ID: "nan", Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{math.NaN()}}}}
	if out := Plot(nan, 20, 8); !strings.Contains(out, "no data") {
		t.Fatalf("NaN plot = %q", out)
	}
}

func TestStageBreakdownSmoke(t *testing.T) {
	res, err := StageBreakdown(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("no stages recorded")
	}
	diff := res.StageSum - res.MeanDelay
	if diff < 0 {
		diff = -diff
	}
	if tol := res.MeanDelay / 20; diff > tol {
		t.Fatalf("stage sum %v vs mean delay %v: differ by %v (> 5%%)", res.StageSum, res.MeanDelay, diff)
	}
	table := StageTable(res)
	for _, want := range []string{"ready_wait", "apply", "mirror_apply"} {
		if !strings.Contains(table, want) {
			t.Errorf("stage table missing %q:\n%s", want, table)
		}
	}
}

func TestFigBandwidthSmoke(t *testing.T) {
	// 400 events of ~52 µs: the central's ledger runs ahead of the wall
	// clock, so every delay is booked. Quick's 100 can finish inside the
	// ledger's 4 ms catch-up window on a busy host, where every delay
	// back-fills before its event arrived and clamps to zero.
	s := Quick
	s.UpdatesPerFlight = 40
	fig, err := FigBandwidth(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2 (bytes/round, mean-delay-us)", len(fig.Series))
	}
	bytes := fig.Series[0]
	if bytes.Name != "bytes/round" || len(bytes.Y) != 3 {
		t.Fatalf("bytes series = %s with %d points, want bytes/round with 3", bytes.Name, len(bytes.Y))
	}
	for i, y := range bytes.Y {
		if y <= 0 {
			t.Fatalf("regime %d shipped no bytes", i+1)
		}
	}
	// The point of the figure: field deltas (x=3) ship materially fewer
	// bytes per checkpoint round than raw mirroring (x=1).
	if bytes.Y[2] >= bytes.Y[0] {
		t.Fatalf("field-deltas bytes/round (%v) not below raw (%v)", bytes.Y[2], bytes.Y[0])
	}
	delay := fig.Series[1]
	if len(delay.Y) != 3 || delay.Y[2] <= 0 {
		t.Fatalf("delay series malformed: %+v", delay)
	}
}
