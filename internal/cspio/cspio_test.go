package cspio

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

func TestParseBasic(t *testing.T) {
	text := `
# a 2-coloring of a triangle (unsatisfiable)
vars 3
dom 2
names a b c
con 0 1 : 0 1 | 1 0
con 1 2 : 0 1 | 1 0
con 2 0 : 0 1 | 1 0
`
	p, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p.Vars != 3 || p.Dom != 2 || len(p.Constraints) != 3 {
		t.Fatalf("shape wrong: %+v", p)
	}
	if p.VarName(2) != "c" {
		t.Fatalf("names not read: %q", p.VarName(2))
	}
	if csp.Solve(p, csp.Options{}).Found {
		t.Fatal("triangle 2-colored")
	}
}

func TestParseDomOf(t *testing.T) {
	text := "vars 2\ndom 3\ndom_of 0 : 2\ncon 0 1 : 2 0 | 1 1\n"
	p, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	res := csp.Solve(p, csp.Options{})
	if !res.Found || res.Solution[0] != 2 || res.Solution[1] != 0 {
		t.Fatalf("dom_of ignored: %+v", res)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                             // missing directives
		"vars 2",                       // missing dom
		"vars x\ndom 2",                // bad integer
		"vars 2\ndom 2\ncon 0 1",       // missing tuples
		"vars 2\ndom 2\ncon 0 1 : 0",   // arity mismatch
		"vars 2\ndom 2\nfrob 1",        // unknown directive
		"vars 1\ndom 2\nnames a b",     // wrong name count
		"vars 1\ndom 2\ncon 0 3 : 0 0", // scope out of range... con 0 3 means scope [0,3]
	}
	for _, text := range bad {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Fatalf("accepted %q", text)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		p := gen.ModelB(rng, 3+rng.Intn(3), 2+rng.Intn(3), 0.7, 0.4)
		var buf bytes.Buffer
		if err := Format(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := Parse(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		if q.Vars != p.Vars || q.Dom != p.Dom || len(q.Constraints) != len(p.Constraints) {
			t.Fatalf("trial %d: round trip changed shape", trial)
		}
		if csp.Solve(p, csp.Options{}).Found != csp.Solve(q, csp.Options{}).Found {
			t.Fatalf("trial %d: round trip changed satisfiability", trial)
		}
	}
}

func TestParseDIMACS(t *testing.T) {
	text := `c sample
p edge 4 3
e 1 2
e 2 3
e 3 4
`
	g, err := ParseDIMACS(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.NumEdges() != 3 || !g.HasEdge(0, 1) {
		t.Fatalf("DIMACS parse wrong: n=%d m=%d", g.N(), g.NumEdges())
	}
	bad := []string{
		"e 1 2",             // edge before header
		"p edge x 3",        // bad count
		"p edge 2 1\ne 1 5", // out of range
		"p edge 2 1\nq 1 2", // unknown line
		"",                  // empty
	}
	for _, b := range bad {
		if _, err := ParseDIMACS(strings.NewReader(b)); err == nil {
			t.Fatalf("accepted %q", b)
		}
	}
}

// TestParseReservationBoundedByLine pins the parser's row reservation to the
// size of the line: a wide scope followed by thousands of empty tuple fields
// holds no tuples, so it must not reserve fields×arity values up front.
func TestParseReservationBoundedByLine(t *testing.T) {
	const arity, fields = 2000, 10000
	var b strings.Builder
	fmt.Fprintf(&b, "vars %d\ndom 1\ncon", arity)
	for v := 0; v < arity; v++ {
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteString(" : " + strings.Repeat("|", fields) + "\n")
	input := b.String()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Parse(strings.NewReader(input))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Constraints[0].Table.Len(); n != 0 {
		t.Fatalf("%d tuples parsed from empty fields", n)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(input)); got > limit {
		t.Fatalf("parsing a %d-byte instance allocated %d bytes (limit %d)", len(input), got, limit)
	}
}
