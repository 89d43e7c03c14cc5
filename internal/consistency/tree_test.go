package consistency

import (
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/structure"
)

func TestIsTreeStructured(t *testing.T) {
	// Path coloring: tree-structured.
	path := csp.MustFromStructures(structure.Path(5), structure.Clique(2))
	if !IsTreeStructured(path) {
		t.Fatal("path not recognized as tree-structured")
	}
	// Cycle: not a forest.
	cyc := csp.MustFromStructures(structure.Cycle(5), structure.Clique(3))
	if IsTreeStructured(cyc) {
		t.Fatal("cycle recognized as tree-structured")
	}
	// Ternary constraint: not binary.
	tern := csp.NewInstance(3, 2)
	tern.MustAddConstraint([]int{0, 1, 2}, csp.TableOf(3, []int{0, 0, 0}))
	if IsTreeStructured(tern) {
		t.Fatal("ternary instance recognized as tree-structured")
	}
	// Repeated-variable binary scope normalizes to unary: still a tree.
	rep := csp.NewInstance(2, 2)
	rep.MustAddConstraint([]int{0, 0}, csp.TableOf(2, []int{0, 0}, []int{1, 1}))
	rep.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}))
	if !IsTreeStructured(rep) {
		t.Fatal("repeated-variable scope broke tree detection")
	}
}

func TestSolveTreeRejectsNonTrees(t *testing.T) {
	cyc := csp.MustFromStructures(structure.Cycle(4), structure.Clique(2))
	if _, err := SolveTree(cyc); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestSolveTreeOnPathColoring(t *testing.T) {
	p := csp.MustFromStructures(structure.Path(7), structure.Clique(2))
	res, err := SolveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !p.Satisfies(res.Solution) {
		t.Fatalf("path coloring failed: %+v", res)
	}
}

// randomTreeInstance builds a random binary CSP whose primal graph is a
// random tree (plus unary constraints).
func randomTreeInstance(rng *rand.Rand, n, d int) *csp.Instance {
	p := csp.NewInstance(n, d)
	for v := 1; v < n; v++ {
		pa := rng.Intn(v)
		tab := csp.NewTable(2)
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				if rng.Float64() < 0.5 {
					tab.Add([]int{a, b})
				}
			}
		}
		if rng.Intn(2) == 0 {
			p.MustAddConstraint([]int{pa, v}, tab)
		} else {
			p.MustAddConstraint([]int{v, pa}, tab)
		}
	}
	// A few unary constraints.
	for v := 0; v < n; v += 3 {
		tab := csp.NewTable(1)
		for a := 0; a < d; a++ {
			if rng.Float64() < 0.7 {
				tab.Add([]int{a})
			}
		}
		if tab.Len() > 0 {
			p.MustAddConstraint([]int{v}, tab)
		}
	}
	return p
}

// Freuder's theorem, checked against the complete solver: SolveTree and MAC
// agree on satisfiability, and SolveTree's solutions are valid.
func TestSolveTreeAgainstMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		p := randomTreeInstance(rng, 2+rng.Intn(8), 2+rng.Intn(3))
		res, err := SolveTree(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := csp.Solve(p, csp.Options{}).Found
		if res.Found != want {
			t.Fatalf("trial %d: tree=%v mac=%v", trial, res.Found, want)
		}
		if res.Found && !p.Satisfies(res.Solution) {
			t.Fatalf("trial %d: invalid solution", trial)
		}
	}
}

// Multiple constraints between the same pair of variables (both
// orientations) must all be honored.
func TestSolveTreeParallelConstraints(t *testing.T) {
	p := csp.NewInstance(2, 3)
	p.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}, []int{1, 2}))
	p.MustAddConstraint([]int{1, 0}, csp.TableOf(2, []int{1, 0}, []int{0, 2}))
	// Consistent pairs: (0,1) from first ∧ (1,0)-flipped={(0,1)}... the
	// joint solutions are assignments (x0,x1) with (x0,x1) in first table
	// and (x1,x0) in second: (0,1) works since (1,0) in second.
	res, err := SolveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !p.Satisfies(res.Solution) {
		t.Fatalf("parallel constraints: %+v", res)
	}
	want := csp.Solve(p, csp.Options{}).Found
	if res.Found != want {
		t.Fatalf("tree=%v mac=%v", res.Found, want)
	}
}

func TestSolveTreeDisconnected(t *testing.T) {
	// Two components, one unsatisfiable via unary wipeout.
	p := csp.NewInstance(4, 2)
	p.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}))
	p.MustAddConstraint([]int{2, 3}, csp.TableOf(2, []int{1, 1}))
	p.MustAddConstraint([]int{3}, csp.TableOf(1, []int{0}))
	res, err := SolveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("unsatisfiable component not detected")
	}
}

// TestForestJoinTreeRandom checks forestJoinTree against a union-find
// oracle on random small scope lists mixing unary, repeated-variable,
// parallel and reversed scopes: it must accept exactly the tree-structured
// ones, and its parent array must then be a forest in which, for every
// variable, the constraints containing it are connected (the join-tree
// property the reducer relies on).
func TestForestJoinTreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accepted := 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(7)
		p := csp.NewInstance(n, 2)
		for c := rng.Intn(9); c > 0; c-- {
			scope := []int{rng.Intn(n)}
			switch rng.Intn(4) {
			case 1, 2:
				scope = append(scope, rng.Intn(n))
			case 3:
				scope = append(scope, rng.Intn(n), scope[0])
			}
			p.MustAddConstraint(scope, csp.NewTable(len(scope)))
		}

		// Oracle: at most two distinct variables per scope, and no distinct
		// pair joins two already-connected variables unless it repeats an
		// earlier pair.
		root := make([]int, n)
		for v := range root {
			root[v] = v
		}
		find := func(v int) int {
			for root[v] != v {
				v = root[v]
			}
			return v
		}
		pairs := map[[2]int]bool{}
		want := true
		for _, con := range p.Constraints {
			vs := map[int]bool{}
			for _, v := range con.Scope {
				vs[v] = true
			}
			if len(vs) > 2 {
				want = false
				break
			}
			if len(vs) == 2 {
				a, b := con.Scope[0], con.Scope[1]
				if a > b {
					a, b = b, a
				}
				if pairs[[2]int{a, b}] {
					continue
				}
				pairs[[2]int{a, b}] = true
				if find(a) == find(b) {
					want = false
					break
				}
				root[find(a)] = find(b)
			}
		}

		parent, ok := forestJoinTree(p)
		if ok != want {
			t.Fatalf("trial %d: scopes %v: ok=%v, oracle %v", trial, scopes(p), ok, want)
		}
		if !ok {
			continue
		}
		accepted++
		m := len(p.Constraints)
		for i := range parent {
			x, steps := i, 0
			for x != -1 {
				if x < -1 || x >= m || steps > m {
					t.Fatalf("trial %d: scopes %v: parent %v is not a forest", trial, scopes(p), parent)
				}
				x, steps = parent[x], steps+1
			}
		}
		for v := 0; v < n; v++ {
			has := func(i int) bool {
				for _, w := range p.Constraints[i].Scope {
					if w == v {
						return true
					}
				}
				return false
			}
			tops := map[int]bool{}
			for i := 0; i < m; i++ {
				if has(i) {
					x := i
					for parent[x] >= 0 && has(parent[x]) {
						x = parent[x]
					}
					tops[x] = true
				}
			}
			if len(tops) > 1 {
				t.Fatalf("trial %d: scopes %v: parent %v splits variable %d", trial, scopes(p), parent, v)
			}
		}
	}
	if accepted < 500 {
		t.Fatalf("only %d tree-structured draws", accepted)
	}
}

func scopes(p *csp.Instance) [][]int {
	out := make([][]int, len(p.Constraints))
	for i, con := range p.Constraints {
		out[i] = con.Scope
	}
	return out
}
