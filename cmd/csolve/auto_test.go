package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"csdb/internal/dispatch"
)

// TestRunAutoFlag: the default strategy routes like cspd's route=auto —
// tree is checked before Schaefer, so the Boolean path of sample.csp takes
// the tree route — and honours the -width budget.
func TestRunAutoFlag(t *testing.T) {
	sample := []string{"../../testdata/sample.csp"}
	var out bytes.Buffer
	if err := run(&out, config{strategy: "auto", args: sample}); err != nil {
		t.Fatalf("run -strategy auto: %v", err)
	}
	if first := strings.SplitN(out.String(), "\n", 2)[0]; !strings.HasPrefix(first, "SAT (auto, route=tree,") {
		t.Fatalf("summary %q, want SAT on the tree route", first)
	}
	if err := run(io.Discard, config{strategy: "auto", width: 2, args: sample}); err != nil {
		t.Fatalf("run -strategy auto -width 2: %v", err)
	}
}

// The auto summary line must always report the route and the
// classification time, and name the portfolio winner only on fallback.
func TestAutoDetail(t *testing.T) {
	out := dispatch.Outcome{Route: dispatch.Acyclic, ClassifyTime: 1500 * time.Microsecond}
	got := detail(dispatch.Auto, out)
	if !strings.Contains(got, "route=acyclic") || !strings.Contains(got, "classify 1.5ms") {
		t.Fatalf("detail %q missing route or classify time", got)
	}
	if strings.Contains(got, "portfolio winner") {
		t.Fatalf("detail %q names a winner without fallback", got)
	}
	out = dispatch.Outcome{Route: dispatch.Hard, Fallback: true, Winner: "mac"}
	if got := detail(dispatch.Auto, out); !strings.Contains(got, "route=hard") ||
		!strings.Contains(got, "portfolio winner mac") {
		t.Fatalf("fallback detail %q missing route or winner", got)
	}
}
