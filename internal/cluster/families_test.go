package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"adaptmirror/internal/obs"
)

// familyTable renders the catalog as the markdown table DESIGN.md
// carries between its families:begin/end markers.
func familyTable() string {
	var b strings.Builder
	b.WriteString("| family | type | HELP |\n|---|---|---|\n")
	for _, f := range obs.Families() {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", f.Name, f.Kind.Type(), f.Help)
	}
	return b.String()
}

// TestFamilyTableMatchesDesignDoc keeps DESIGN.md's family table the
// one this binary's catalog prints (it links every declaring package:
// the lint cluster is built from the same imports). On drift it prints
// the table to paste.
func TestFamilyTableMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- families:begin -->\n", "<!-- families:end -->"
	_, rest, ok := strings.Cut(string(doc), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no families:begin/end block")
	}
	if want := familyTable(); got != want {
		t.Fatalf("DESIGN.md family table is stale; the catalog prints:\n%s", want)
	}
}
