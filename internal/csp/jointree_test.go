package csp

import "testing"

// TestSolveJoinTreeRejectsMalformedTrees feeds the engine parent arrays that
// are not forests, and edges that do not form a join tree or do not imply
// the instance: each must come back as an error, never as a verdict.
func TestSolveJoinTreeRejectsMalformedTrees(t *testing.T) {
	p := NewInstance(3, 2)
	eq := TableOf(2, []int{0, 0}, []int{1, 1})
	ne := TableOf(2, []int{0, 1}, []int{1, 0})
	p.MustAddConstraint([]int{0, 1}, eq)
	p.MustAddConstraint([]int{1, 2}, ne)
	edges := EdgesOf(p)
	for _, parent := range [][]int{{1, 0}, {0, -1}, {2, -1}, {-1}, {-2, -1}} {
		if _, _, err := SolveJoinTree(p, edges, parent); err == nil {
			t.Errorf("parent %v accepted", parent)
		}
	}
	if res, _, err := SolveJoinTree(p, edges, []int{1, -1}); err != nil || !res.Found {
		t.Fatalf("valid join tree: found=%v err=%v", res.Found, err)
	}
	// Edge 1 with rows its constraint forbids: the edges no longer imply the
	// instance, and the final Satisfies check catches it.
	swapped := []JoinEdge{edges[0], {Scope: []int{1, 2}, Rows: [][]int{{0, 0}}}}
	if _, _, err := SolveJoinTree(p, swapped, []int{1, -1}); err == nil {
		t.Error("edges that violate the instance accepted")
	}
	// Two roots sharing variable 1 are not a join forest: the pick for the
	// second root ignores the first.
	split := []JoinEdge{{Scope: []int{0, 1}, Rows: [][]int{{0, 0}, {1, 1}}}, {Scope: []int{1, 2}, Rows: [][]int{{1, 0}}}}
	if _, _, err := SolveJoinTree(p, split, []int{-1, -1}); err == nil {
		t.Error("roots sharing a variable accepted")
	}
}

// TestNormalizeSharesTables pins that normalization copies nothing it does
// not change: a distinct-scope constraint keeps its *Table, while a
// repeated-variable scope is projected into a new table and a merged scope
// gets the intersection — and no input table is modified by either.
func TestNormalizeSharesTables(t *testing.T) {
	p := NewInstance(2, 3)
	a := TableOf(2, []int{0, 1}, []int{1, 2}, []int{2, 0})
	rep := TableOf(2, []int{0, 0}, []int{0, 1}, []int{2, 2})
	b := TableOf(2, []int{1, 2}, []int{2, 0}, []int{2, 2})
	p.MustAddConstraint([]int{0, 1}, a)
	p.MustAddConstraint([]int{1, 1}, rep)
	p.MustAddConstraint([]int{0, 1}, b)
	keys := []string{a.Key(), rep.Key(), b.Key()}

	q := p.NormalizeDistinct()
	if q.Constraints[0].Table != a || q.Constraints[2].Table != b {
		t.Fatal("NormalizeDistinct copied a distinct-scope table")
	}
	proj := q.Constraints[1]
	if len(proj.Scope) != 1 || proj.Scope[0] != 1 || proj.Table.Key() != TableOf(1, []int{0}, []int{2}).Key() {
		t.Fatalf("repeated-scope projection: scope %v rows %v", proj.Scope, proj.Table.Tuples())
	}

	r := p.Normalize()
	if len(r.Constraints) != 2 {
		t.Fatalf("Normalize kept %d constraints, want 2", len(r.Constraints))
	}
	merged := r.Constraints[0].Table
	if merged == a || merged == b || merged.Key() != TableOf(2, []int{1, 2}, []int{2, 0}).Key() {
		t.Fatalf("merged scope: rows %v", merged.Tuples())
	}
	if r.Constraints[1].Table.Key() != proj.Table.Key() {
		t.Fatal("Normalize changed the single-occurrence projection")
	}
	for i, tab := range []*Table{a, rep, b} {
		if tab.Key() != keys[i] {
			t.Fatalf("input table %d modified: %v", i, tab.Tuples())
		}
	}
}
