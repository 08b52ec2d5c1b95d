package obs

import (
	"strings"
	"testing"
)

func lintErr(t *testing.T, exposition string) error {
	t.Helper()
	return LintPrometheus(strings.NewReader(exposition))
}

func TestLintAcceptsValid(t *testing.T) {
	valid := `# HELP http_requests_total Total requests.
# TYPE http_requests_total counter
http_requests_total{method="get",code="200"} 1027
http_requests_total{method="post",code="200"} 3

# TYPE queue_depth gauge
queue_depth 7

# TYPE rpc_duration_seconds summary
rpc_duration_seconds{quantile="0.5"} 0.05
rpc_duration_seconds{quantile="0.99"} 0.1
rpc_duration_seconds_sum 17.5
rpc_duration_seconds_count 2693

# TYPE batch_events histogram
batch_events_bucket{mirror="0",le="1"} 0
batch_events_bucket{mirror="0",le="64"} 5
batch_events_bucket{mirror="0",le="+Inf"} 7
batch_events_sum{mirror="0"} 900
batch_events_count{mirror="0"} 7
batch_events_bucket{mirror="1",le="1"} 0
batch_events_bucket{mirror="1",le="+Inf"} 0
batch_events_sum{mirror="1"} 0
batch_events_count{mirror="1"} 0
untyped_metric 3.14 1395066363000
escaped{path="C:\\DIR\\",msg="say \"hi\"\n"} 1
`
	if err := lintErr(t, valid); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestLintRejections(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "empty exposition"},
		{"no trailing newline", "a 1", "end with a newline"},
		{"bad metric name", "9bad 1\n", "invalid metric name"},
		{"bad label name", `m{9x="1"} 1` + "\n", "invalid label name"},
		{"reserved label", `m{__name="1"} 1` + "\n", "invalid label name"},
		{"unquoted label", "m{x=1} 1\n", "not quoted"},
		{"bad escape", `m{x="a\t"} 1` + "\n", `invalid escape`},
		{"unterminated value", `m{x="a} 1` + "\n", "unterminated label value"},
		{"missing value", "m{}\n", "must be 'value [timestamp]'"},
		{"bad value", "m notanumber\n", "invalid sample value"},
		{"bad timestamp", "m 1 12.5\n", "invalid timestamp"},
		{"bad type", "# TYPE m frobnitz\nm 1\n", `invalid type "frobnitz"`},
		{"duplicate TYPE", "# TYPE m counter\n# TYPE m counter\nm 1\n", "second TYPE line"},
		{"TYPE after samples", "m 1\n# TYPE m counter\n", "after its samples"},
		{"duplicate series", "m 1\nm 2\n", "duplicate series"},
		{"histogram le not a number", hist(`h_bucket{le="x"} 1`, `h_bucket{le="+Inf"} 1`, "h_sum 1", "h_count 1"), `le "x", not a number`},
		{"histogram le not ascending", hist(`h_bucket{le="2"} 1`, `h_bucket{le="1"} 1`, `h_bucket{le="+Inf"} 1`, "h_sum 1", "h_count 1"), "not above the previous bucket"},
		{"histogram not cumulative", hist(`h_bucket{le="1"} 3`, `h_bucket{le="2"} 2`, `h_bucket{le="+Inf"} 3`, "h_sum 1", "h_count 3"), "not cumulative"},
		{"histogram without +Inf", hist(`h_bucket{le="1"} 1`, "h_sum 1", "h_count 1"), `no le="+Inf" bucket`},
		{"histogram +Inf unlike _count", hist(`h_bucket{le="+Inf"} 2`, "h_sum 1", "h_count 3"), "+Inf bucket 2 differs from _count 3"},
		{"histogram without _sum", hist(`h_bucket{le="+Inf"} 1`, "h_count 1"), "has no _sum"},
		{"histogram without _count", hist(`h_bucket{le="+Inf"} 1`, "h_sum 1"), "has no _count"},
		{
			"interleaved families",
			"# TYPE a counter\na 1\n# TYPE b counter\nb 1\na{x=\"1\"} 2\n",
			"not contiguous",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := lintErr(t, tc.in)
			if err == nil {
				t.Fatalf("lint accepted invalid exposition:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// hist renders a histogram family h with the given sample lines.
func hist(lines ...string) string {
	return "# TYPE h histogram\n" + strings.Join(lines, "\n") + "\n"
}

func TestLintSummarySuffixesAreSameFamily(t *testing.T) {
	// _sum/_count of a summary must not be flagged as interleaving or as
	// separate families.
	in := `# TYPE s summary
s{quantile="0.5"} 1
s_sum 2
s_count 3
# TYPE other counter
other 1
`
	if err := lintErr(t, in); err != nil {
		t.Fatalf("summary suffix handling broken: %v", err)
	}
}

func TestLintReportsAllViolations(t *testing.T) {
	in := "9bad 1\nm notanumber\n"
	err := lintErr(t, in)
	if err == nil {
		t.Fatal("expected violations")
	}
	if !strings.Contains(err.Error(), "2 violation(s)") {
		t.Fatalf("expected both violations reported, got: %v", err)
	}
}

// LintFamilies holds a scrape to the declarations: what metricslint
// fails on.
func TestLintFamiliesAgainstDeclarations(t *testing.T) {
	declared := []*Family{
		{Name: "depth", Kind: KindGauge, Help: "Queue depth."},
		{Name: "sent_total", Kind: KindCounter, Help: "Events sent."},
	}
	good := "# HELP depth Queue depth.\n# TYPE depth gauge\ndepth 1\n" +
		"# HELP sent_total Events sent.\n# TYPE sent_total counter\nsent_total{mirror=\"0\"} 2\n"
	if err := LintFamilies(strings.NewReader(good), declared); err != nil {
		t.Fatalf("conforming scrape rejected: %v", err)
	}

	cases := []struct {
		name, in, wantSub string
	}{
		{"undeclared family", good + "# HELP stray Stray.\n# TYPE stray gauge\nstray 1\n", "family stray is not declared"},
		{"untyped family", "depth 1\n" + good[strings.Index(good, "# HELP sent_total"):], `family depth has TYPE ""`},
		{"wrong type", strings.Replace(good, "depth gauge", "depth counter", 1), `family depth has TYPE "counter", declared gauge`},
		{"no help", strings.Replace(good, "# HELP depth Queue depth.\n", "", 1), `family depth has HELP ""`},
		{"other help", strings.Replace(good, "Queue depth.", "Depth of the queue.", 1), `family depth has HELP "Depth of the queue."`},
		{"declared family missing", good[:strings.Index(good, "# HELP sent_total")], "declared family sent_total has no series"},
		{"format violations still count", good + "9bad 1\n", "invalid metric name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintFamilies(strings.NewReader(tc.in), declared)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %v does not mention %q", err, tc.wantSub)
			}
		})
	}
}
