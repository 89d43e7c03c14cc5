package dispatch

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/cspio"
)

// TestStrategyNames pins the table: every entry round-trips through its
// name, and a value outside the table formats without panicking.
func TestStrategyNames(t *testing.T) {
	want := []string{"auto", "portfolio", "parallel", "learn", "mac", "fc", "bt", "cbj", "join"}
	all := Strategies()
	if len(all) != len(want) {
		t.Fatalf("table has %d entries, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.String() != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, s, want[i])
		}
		if got, err := ParseStrategy(want[i]); err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", want[i], got, err)
		}
	}
	if got := Strategy(99).String(); got != "Strategy(99)" {
		t.Fatalf("out-of-table strategy string = %q", got)
	}
	for _, name := range []string{"", "search", "tree", "schaefer", "treewidth", "MAC"} {
		if _, err := ParseStrategy(name); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Fatalf("ParseStrategy(%q) err = %v, want unknown strategy", name, err)
		}
	}
}

// TestStrategyLabelClosed pins the label helper to the table: every name
// labels as itself, and nothing else can mint a new label value.
func TestStrategyLabelClosed(t *testing.T) {
	for _, s := range Strategies() {
		if got := StrategyLabel(s.String()); got != s.String() {
			t.Fatalf("label(%q) = %q", s, got)
		}
	}
	if got := StrategyLabel(""); got != "none" {
		t.Fatalf(`label("") = %q, want none`, got)
	}
	if got := StrategyLabel("oracle"); got != "other" {
		t.Fatalf(`label("oracle") = %q, want other`, got)
	}
}

// TestParse covers the request grammar: the daemon default, the route
// alias, and the two conflicts.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  Strategy
		err   string
	}{
		{"", Portfolio, ""},
		{"strategy=mac", MAC, ""},
		{"route=auto", Auto, ""},
		{"route=portfolio", Portfolio, ""},
		{"strategy=auto&route=auto", Auto, ""},
		{"strategy=parallel&workers=3", Parallel, ""},
		{"strategy=oracle", 0, "unknown strategy"},
		{"route=bogus", 0, "bad route"},
		{"strategy=mac&route=auto", 0, "conflicting strategy"},
		{"strategy=learn&workers=2", 0, "conflicting workers"},
		{"workers=-1", 0, "bad workers"},
		{"workers=x", 0, "bad workers"},
	} {
		q, _ := url.ParseQuery(tc.query)
		got, _, err := ParseQuery(q)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("%q: err = %v, want %q", tc.query, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Fatalf("%q = %v, %v; want %v", tc.query, got, err, tc.want)
		}
	}
}

// TestRunEveryStrategy: every table entry reaches the verdict the portfolio
// reaches on the differential families, and only Auto reports a structural
// route.
func TestRunEveryStrategy(t *testing.T) {
	an := NewAnalyzer(0, 0)
	for _, p := range agreementCorpus() {
		want := csp.Portfolio(context.Background(), p.inst, csp.PortfolioOptions{}).Found
		for _, s := range Strategies() {
			out := an.Run(context.Background(), p.inst, s, 2)
			if out.Aborted || out.Found != want {
				t.Fatalf("%s/%v: found=%v aborted=%v, want found=%v", p.name, s, out.Found, out.Aborted, want)
			}
			if out.Found && !p.inst.Satisfies(out.Solution) {
				t.Fatalf("%s/%v: non-solution %v", p.name, s, out.Solution)
			}
			if s != Auto && out.Route != Hard {
				t.Fatalf("%s/%v: route %v outside auto", p.name, s, out.Route)
			}
		}
	}
}

var updateAgreement = flag.Bool("update-agreement", false,
	"rewrite testdata/agreement from the differential families")

// agreementDir holds the instances the entry-point agreement test in
// cmd/cspd replays through core, csolve and cspd.
const agreementDir = "../../testdata/agreement"

type namedInstance struct {
	name string
	inst *csp.Instance
}

// agreementCorpus draws two instances from every differential family with a
// fixed seed.
func agreementCorpus() []namedInstance {
	var out []namedInstance
	for _, fam := range diffFamilies() {
		rng := rand.New(rand.NewSource(int64(len(fam.name)) * 7919))
		for i := 0; i < 2; {
			if p := fam.gen(rng); p != nil {
				out = append(out, namedInstance{fmt.Sprintf("%s-%d", fam.name, i), p})
				i++
			}
		}
	}
	return out
}

// TestWriteAgreementCorpus regenerates testdata/agreement when run with
// -update-agreement (go test ./internal/dispatch -run
// TestWriteAgreementCorpus -update-agreement). The corpus is a fixed draw
// rather than a checked one: graph.Edges iterates a map, so the graph-based
// families do not reproduce from their seed.
func TestWriteAgreementCorpus(t *testing.T) {
	if !*updateAgreement {
		t.Skip("corpus is rewritten only with -update-agreement")
	}
	if err := os.MkdirAll(agreementDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range agreementCorpus() {
		var b strings.Builder
		fmt.Fprintf(&b, "# dispatch differential family %s (generated by TestWriteAgreementCorpus)\n", p.name)
		if err := cspio.Format(&b, p.inst); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(agreementDir, p.name+".csp"), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
