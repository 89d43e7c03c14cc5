package core

import (
	"math/rand"
	"strings"
	"testing"

	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/dispatch"
	"csdb/internal/gen"
	"csdb/internal/graph"
	"csdb/internal/structure"
)

func TestFromStructuresAndSolve(t *testing.T) {
	p, err := FromStructures(structure.Cycle(5), structure.Clique(3))
	if err != nil {
		t.Fatal(err)
	}
	res := p.Solve(Options{})
	if !res.Satisfiable {
		t.Fatal("C5 -> K3 unsatisfiable")
	}
	if !structure.IsHomomorphism(structure.Cycle(5), structure.Clique(3), res.Assignment) {
		t.Fatal("assignment is not a homomorphism")
	}

	p2, err := FromStructures(structure.Cycle(5), structure.Clique(2))
	if err != nil {
		t.Fatal(err)
	}
	res2 := p2.Solve(Options{})
	if res2.Satisfiable {
		t.Fatal("C5 -> K2 satisfiable")
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		inst := gen.ModelB(rng, 4+rng.Intn(3), 2+rng.Intn(2), 0.7, 0.4)
		p := FromCSP(inst)
		want := csp.Solve(inst, csp.Options{}).Found
		for _, s := range dispatch.Strategies() {
			res := p.Solve(Options{Strategy: s})
			if res.Satisfiable != want {
				t.Fatalf("trial %d strategy %v: got %v want %v", trial, s, res.Satisfiable, want)
			}
			if res.Satisfiable && !inst.Satisfies(res.Assignment) {
				t.Fatalf("trial %d strategy %v: invalid assignment", trial, s)
			}
		}
	}
}

func TestSchaeferStrategy(t *testing.T) {
	// A 2-SAT Boolean instance on a 4-cycle: not a tree, so Auto must
	// dispatch it to the Schaefer solver rather than Freuder's.
	inst := csp.NewInstance(4, 2)
	orTab := csp.TableOf(2, []int{0, 1}, []int{1, 0}, []int{1, 1})
	for i := 0; i < 4; i++ {
		inst.MustAddConstraint([]int{i, (i + 1) % 4}, orTab)
	}
	p := FromCSP(inst)
	res := p.Solve(Options{})
	if !res.Satisfiable || res.Route != dispatch.Schaefer {
		t.Fatalf("schaefer dispatch failed: %+v", res)
	}
	if !inst.Satisfies(res.Assignment) {
		t.Fatal("invalid assignment")
	}
}

func TestSchaeferStrategyAgreesOnRandomBoolean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		inst := gen.ModelB(rng, 3+rng.Intn(3), 2, 0.8, 0.4)
		p := FromCSP(inst)
		want := csp.Solve(inst, csp.Options{}).Found
		res := p.Solve(Options{})
		if res.Satisfiable != want {
			t.Fatalf("trial %d: auto=%v search=%v (route %v)", trial, res.Satisfiable, want, res.Route)
		}
	}
}

func TestBooleanQueryView(t *testing.T) {
	// Boolean query: does the database contain a directed triangle?
	q := cq.MustParse("Q :- E(X,Y), E(Y,Z), E(Z,X)")
	withTri := structure.Clique(3)
	p, err := FromBooleanQuery(q, withTri)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Solve(Options{})
	if !res.Satisfiable {
		t.Fatal("triangle not found in K3")
	}
	noTri := structure.Cycle(4)
	p2, err := FromBooleanQuery(q, noTri)
	if err != nil {
		t.Fatal(err)
	}
	res2 := p2.Solve(Options{})
	if res2.Satisfiable {
		t.Fatal("triangle found in C4")
	}
	// Non-Boolean queries are rejected.
	if _, err := FromBooleanQuery(cq.MustParse("Q(X) :- E(X,X)"), withTri); err == nil {
		t.Fatal("non-Boolean query accepted")
	}
}

func TestQueryViewRoundTrip(t *testing.T) {
	// The query view of a problem decides it (Proposition 2.3).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		a := gen.RandomSymmetricGraph(rng, 3+rng.Intn(2), 0.5)
		if a.NumTuples() == 0 {
			continue
		}
		b := structure.Clique(2)
		p, err := FromStructures(a, b)
		if err != nil {
			t.Fatal(err)
		}
		q, db, err := p.Query()
		if err != nil {
			t.Fatal(err)
		}
		truth, err := q.True(db)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Solve(Options{})
		if truth != res.Satisfiable {
			t.Fatalf("trial %d: query view %v, solver %v", trial, truth, res.Satisfiable)
		}
	}
}

func TestPreprocess(t *testing.T) {
	// GAC alone refutes this instance: every solver-table entry, the routed
	// polynomial solvers included, must report it unsatisfiable.
	inst := csp.NewInstance(2, 2)
	inst.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}))
	inst.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{1, 0}))
	p := FromCSP(inst)
	for _, s := range dispatch.Strategies() {
		if res := p.Solve(Options{Strategy: s}); res.Satisfiable {
			t.Fatalf("strategy %v: satisfiable", s)
		}
	}
}

func TestExplain(t *testing.T) {
	// Tree is checked before Schaefer, so the Boolean instance is a
	// triangle of equalities.
	boolInst := csp.NewInstance(3, 2)
	eq := csp.TableOf(2, []int{0, 0}, []int{1, 1})
	for i := 0; i < 3; i++ {
		boolInst.MustAddConstraint([]int{i, (i + 1) % 3}, eq)
	}
	msg := FromCSP(boolInst).Explain()
	if !strings.Contains(msg, "Schaefer") {
		t.Fatalf("Explain = %q", msg)
	}
	treeInst := gen.Coloring(graph.Path(6), 3)
	msg2 := FromCSP(treeInst).Explain()
	if !strings.Contains(msg2, "tree-structured") {
		t.Fatalf("Explain = %q", msg2)
	}
	gridInst := gen.Coloring(graph.Grid(3, 4), 3)
	msg3 := FromCSP(gridInst).Explain()
	if !strings.Contains(msg3, "treewidth") {
		t.Fatalf("Explain = %q", msg3)
	}
}

func TestTreeStrategy(t *testing.T) {
	inst := gen.Coloring(graph.Path(8), 3) // 3 colors: not a Boolean template
	p := FromCSP(inst)
	res := p.Solve(Options{})
	if !res.Satisfiable || res.Route != dispatch.Tree {
		t.Fatalf("tree dispatch failed: %+v", res)
	}
	if !inst.Satisfies(res.Assignment) {
		t.Fatal("invalid tree solution")
	}
}

func TestCount(t *testing.T) {
	p := FromCSP(gen.Coloring(graph.Path(4), 3)) // 3*2^3 = 24 colorings
	n, err := p.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != 24 {
		t.Fatalf("Count = %v, want 24", n)
	}
}

func TestMinimizeQueryHelper(t *testing.T) {
	q := cq.MustParse("Q(X,Y) :- E(X,Z), E(Z,Y), E(X,W)")
	m, err := MinimizeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 2 {
		t.Fatalf("minimized to %d subgoals", len(m.Body))
	}
}

func TestHomomorphismHelper(t *testing.T) {
	h, ok, err := Homomorphism(structure.Cycle(6), structure.Clique(2))
	if err != nil || !ok {
		t.Fatalf("C6->K2: %v %v", ok, err)
	}
	if !structure.IsHomomorphism(structure.Cycle(6), structure.Clique(2), h) {
		t.Fatal("invalid homomorphism")
	}
	_, ok, err = Homomorphism(structure.Clique(3), structure.Clique(2))
	if err != nil || ok {
		t.Fatalf("K3->K2: %v %v", ok, err)
	}
}

func TestContainsHelper(t *testing.T) {
	tri := cq.MustParse("Q(X) :- E(X,Y), E(Y,Z), E(Z,X)")
	edge := cq.MustParse("Q(X) :- E(X,Y)")
	got, err := Contains(tri, edge)
	if err != nil || !got {
		t.Fatalf("containment: %v %v", got, err)
	}
}

func TestCSPAndStructuresAccessors(t *testing.T) {
	inst := gen.Coloring(graph.Cycle(4), 2)
	p := FromCSP(inst)
	if p.CSP() != inst {
		t.Fatal("CSP accessor lost the instance")
	}
	a, b, err := p.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 4 || b.Size() != 2 {
		t.Fatalf("structures view wrong: |A|=%d |B|=%d", a.Size(), b.Size())
	}
	// Cached on second call.
	a2, _, err := p.Structures()
	if err != nil || a2 != a {
		t.Fatal("structures view not cached")
	}
}

func TestSchaeferRouteWithDomains(t *testing.T) {
	// A Boolean triangle with per-variable domains: the Schaefer route must
	// fold the domains into unary constraints.
	inst := csp.NewInstance(3, 2)
	inst.Domains = [][]int{{1}, nil, nil}
	orTab := csp.TableOf(2, []int{0, 1}, []int{1, 0}, []int{1, 1})
	for i := 0; i < 3; i++ {
		inst.MustAddConstraint([]int{i, (i + 1) % 3}, orTab)
	}
	res := FromCSP(inst).Solve(Options{})
	if !res.Satisfiable || res.Route != dispatch.Schaefer || res.Assignment[0] != 1 {
		t.Fatalf("schaefer with domains: %+v", res)
	}
	if !inst.Satisfies(res.Assignment) {
		t.Fatal("invalid assignment")
	}
}
