package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"csdb/internal/core"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
)

// csolveSummary matches csolve's summary line: the verdict, the strategy
// that ran, and (for auto) the route.
var csolveSummary = regexp.MustCompile(`^(SAT|UNSAT|UNKNOWN) \((\w+)(?:, route=(\w+))?`)

// TestEntryPointsAgree: for every solver-table entry, the library
// (core.Problem.Solve), the CLI (csolve -strategy X) and the daemon
// (/solve?strategy=X) reach the same verdict, and under auto the same
// route, on testdata/sample.csp and the dispatch differential corpus.
func TestEntryPointsAgree(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go tool is needed to build csolve: %v", err)
	}
	csolve := filepath.Join(t.TempDir(), "csolve")
	if out, err := exec.Command(goTool, "build", "-o", csolve, "../csolve").CombinedOutput(); err != nil {
		t.Fatalf("building csolve: %v\n%s", err, out)
	}
	corpus, err := filepath.Glob("../../testdata/agreement/*.csp")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no agreement corpus (%v)", err)
	}
	files := append([]string{"../../testdata/sample.csp"}, corpus...)
	ts, _ := startDaemon(t)

	for _, file := range files {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := cspio.Parse(strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		name := filepath.Base(file)
		for _, s := range dispatch.Strategies() {
			lib := core.FromCSP(inst).Solve(core.Options{Strategy: s})
			libVerdict := "UNSAT"
			if lib.Satisfiable {
				libVerdict = "SAT"
			}

			out, err := exec.Command(csolve, "-strategy", s.String(), file).Output()
			if err != nil {
				t.Fatalf("%s: csolve -strategy %s: %v", name, s, err)
			}
			m := csolveSummary.FindStringSubmatch(string(out))
			if m == nil {
				t.Fatalf("%s: csolve -strategy %s printed %q", name, s, out)
			}
			if m[2] != s.String() {
				t.Fatalf("%s: csolve -strategy %s reports strategy %s", name, s, m[2])
			}

			resp := postSolve(t, ts, "strategy="+s.String()+"&timeout=30s", string(body))
			daemonVerdict := "UNSAT"
			switch {
			case resp.Aborted:
				daemonVerdict = "UNKNOWN"
			case resp.Found:
				daemonVerdict = "SAT"
			}

			if m[1] != libVerdict || daemonVerdict != libVerdict {
				t.Fatalf("%s/%s: verdicts disagree: core %s, csolve %s, cspd %s",
					name, s, libVerdict, m[1], daemonVerdict)
			}
			if s == dispatch.Auto && (m[3] != lib.Route.String() || resp.Route != lib.Route.String()) {
				t.Fatalf("%s/auto: routes disagree: core %s, csolve %s, cspd %s",
					name, lib.Route, m[3], resp.Route)
			}
		}
	}
}
