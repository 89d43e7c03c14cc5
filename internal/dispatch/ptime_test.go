package dispatch

import (
	"testing"

	"csdb/internal/consistency"
	"csdb/internal/csp"
	"csdb/internal/hypergraph"
	"csdb/internal/treewidth"
)

// TestPTIMERoutesEdgeCases runs the shapes that stress the shared join-tree
// reducer through every PTIME route whose precondition holds (tree,
// acyclic, width): each must return the expected verdict without error or
// panic, and every SAT answer must satisfy the instance.
func TestPTIMERoutesEdgeCases(t *testing.T) {
	tab := csp.TableOf
	cases := []struct {
		name  string
		build func() *csp.Instance
		sat   bool
	}{
		{"unconstrained empty domain", func() *csp.Instance {
			p := csp.NewInstance(3, 2)
			p.Domains = [][]int{nil, nil, {}}
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{0, 1}))
			return p
		}, false},
		{"constrained empty domain", func() *csp.Instance {
			p := csp.NewInstance(2, 2)
			p.Domains = [][]int{{}, nil}
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{0, 1}, []int{1, 0}))
			return p
		}, false},
		{"repeated-variable scopes", func() *csp.Instance {
			p := csp.NewInstance(2, 3)
			// (x,x) keeps x in {0,2}; (y,y) keeps y in {1}.
			p.MustAddConstraint([]int{0, 0}, tab(2, []int{0, 0}, []int{1, 2}, []int{2, 2}))
			p.MustAddConstraint([]int{1, 1}, tab(2, []int{1, 1}, []int{0, 2}))
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{1, 1}, []int{2, 1}))
			return p
		}, true},
		{"repeated-variable scope empties", func() *csp.Instance {
			p := csp.NewInstance(2, 2)
			p.MustAddConstraint([]int{0, 0}, tab(2, []int{0, 1}, []int{1, 0}))
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{0, 0}, []int{1, 1}))
			return p
		}, false},
		{"unary, parallel and reversed edges", func() *csp.Instance {
			p := csp.NewInstance(4, 3)
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{0, 1}, []int{1, 2}, []int{2, 0}))
			p.MustAddConstraint([]int{1, 0}, tab(2, []int{2, 1}, []int{0, 2})) // reversed
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{1, 2}, []int{0, 1})) // parallel
			p.MustAddConstraint([]int{1}, tab(1, []int{2}))                    // unary on an edge end
			p.MustAddConstraint([]int{2, 1}, tab(2, []int{0, 2}, []int{1, 1})) // reversed child
			p.MustAddConstraint([]int{3}, tab(1, []int{1}, []int{2}))          // unary, isolated
			p.MustAddConstraint([]int{3}, tab(1, []int{2}))                    // second unary
			return p
		}, true},
		{"parallel edges disagree", func() *csp.Instance {
			p := csp.NewInstance(3, 2)
			p.MustAddConstraint([]int{1, 2}, tab(2, []int{0, 0}, []int{1, 1}))
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{0, 0}, []int{1, 1}))
			p.MustAddConstraint([]int{1, 0}, tab(2, []int{0, 1}, []int{1, 0}))
			return p
		}, false},
		{"three components", func() *csp.Instance {
			p := csp.NewInstance(7, 3)
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{0, 1}, []int{1, 2}))
			p.MustAddConstraint([]int{2, 1}, tab(2, []int{0, 2}))
			p.MustAddConstraint([]int{4, 3}, tab(2, []int{2, 2}, []int{1, 0}))
			p.MustAddConstraint([]int{5}, tab(1, []int{1}))
			return p // variable 6 is in no constraint
		}, true},
		{"three components, one UNSAT", func() *csp.Instance {
			p := csp.NewInstance(6, 3)
			p.MustAddConstraint([]int{0, 1}, tab(2, []int{0, 1}, []int{1, 2}))
			p.MustAddConstraint([]int{3, 2}, tab(2, []int{2, 2}))
			p.MustAddConstraint([]int{3}, tab(1, []int{1}))
			p.MustAddConstraint([]int{5, 4}, tab(2, []int{0, 0}))
			return p
		}, false},
		{"zero constraints", func() *csp.Instance { return csp.NewInstance(3, 2) }, true},
		{"zero values", func() *csp.Instance { return csp.NewInstance(2, 0) }, false},
		{"no variables", func() *csp.Instance { return csp.NewInstance(0, 2) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			routes := 0
			check := func(route string, res csp.Result, err error) {
				t.Helper()
				routes++
				if err != nil {
					t.Fatalf("%s: %v", route, err)
				}
				if res.Found != tc.sat {
					t.Fatalf("%s: found=%v, want %v", route, res.Found, tc.sat)
				}
				if res.Found && !p.Satisfies(res.Solution) {
					t.Fatalf("%s: non-solution %v", route, res.Solution)
				}
			}
			if consistency.IsTreeStructured(p) {
				res, err := consistency.SolveTree(p)
				check("tree", res, err)
			}
			if hypergraph.FromInstance(p).IsAcyclic() {
				res, err := hypergraph.SolveAcyclicCSP(p, nil)
				check("acyclic", res, err)
			}
			res, err := treewidth.SolveDecomposed(p, treewidth.BestHeuristic(treewidth.PrimalGraph(p)))
			check("width", res, err)
			if routes != 3 {
				t.Fatalf("ran %d routes, want all 3", routes)
			}
		})
	}
}
