package consistency

import (
	"fmt"

	"csdb/internal/csp"
)

// This file implements Freuder's classical theorem — the historical root of
// Section 5's local-to-global consistency programme: on a tree-structured
// binary constraint network, directional arc consistency makes backtrack-
// free search possible. (It is also the width-1 case of Theorem 6.2.) The
// constraints of a forest-shaped network form a join tree, and directional
// arc consistency is the up pass of the semijoin reducer over it, so the
// solver is the shared join-tree engine (csp.SolveJoinTree) run on that
// tree.

// IsTreeStructured reports whether the instance is binary (all scopes have
// at most 2 distinct variables) and its primal graph is a forest. It is a
// pure shape check on scopes — no constraint tables are cloned or rewritten
// — so the dispatcher can afford to call it on every instance.
func IsTreeStructured(p *csp.Instance) bool {
	_, ok := forestJoinTree(p)
	return ok
}

// forestJoinTree returns a join tree over the constraints of a
// tree-structured instance (constraint i is edge i) as a parent array, in
// O(constraints + variables), or ok=false when the instance is not
// tree-structured. A breadth-first search over the primal forest joins each
// newly reached variable w through the constraint e that reached it
// (anchor[w] = e), and hangs e below the anchor of the variable it came
// from. A component's root variable takes the anchor of its first tree
// constraint. Parallel and reversed constraints on an anchored pair hang
// below the anchor, and unary constraints below their variable's anchor (an
// isolated variable's first unary constraint roots its own tree).
func forestJoinTree(p *csp.Instance) (parent []int, ok bool) {
	m := len(p.Constraints)
	// ends[2i], ends[2i+1]: constraint i's distinct variables, the second
	// -1 for a unary scope.
	ends := make([]int, 2*m)
	// Incident binary constraints in CSR form: inc[at[v]:at[v+1]] for v.
	at := make([]int, p.Vars+1)
	for i, con := range p.Constraints {
		a, b := -1, -1
		for _, v := range con.Scope {
			switch {
			case a < 0 || v == a:
				a = v
			case b < 0 || v == b:
				b = v
			default:
				return nil, false // a third distinct variable in one scope
			}
		}
		ends[2*i], ends[2*i+1] = a, b
		if b >= 0 {
			at[a+1]++
			at[b+1]++
		}
	}
	for v := 1; v <= p.Vars; v++ {
		at[v] += at[v-1]
	}
	inc := make([]int, at[p.Vars])
	fill := append([]int(nil), at[:p.Vars]...)
	for i := 0; i < m; i++ {
		if a, b := ends[2*i], ends[2*i+1]; b >= 0 {
			inc[fill[a]], inc[fill[b]] = i, i
			fill[a]++
			fill[b]++
		}
	}

	parent = make([]int, m)
	for i := range parent {
		parent[i] = -2 // not yet placed
	}
	anchor, from := fill, make([]int, p.Vars) // fill is spent; reuse it
	for v := range anchor {
		anchor[v], from[v] = -1, -2 // from: BFS predecessor, -2 unreached
	}
	queue := make([]int, 0, p.Vars)
	for r := 0; r < p.Vars; r++ {
		if from[r] != -2 {
			continue
		}
		from[r] = -1
		queue = append(queue[:0], r)
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			for _, e := range inc[at[v]:at[v+1]] {
				if parent[e] != -2 {
					continue // placed from its other end
				}
				w := ends[2*e]
				if w == v {
					w = ends[2*e+1]
				}
				switch from[w] {
				case -2: // e reaches w
					from[w], anchor[w] = v, e
					queue = append(queue, w)
					parent[e] = anchor[v]
					if anchor[v] < 0 {
						anchor[v] = e
					}
				case v: // parallel to the constraint that reached w
					parent[e] = anchor[w]
				default:
					return nil, false // e closes a cycle
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		if ends[2*i+1] < 0 {
			v := ends[2*i]
			parent[i] = anchor[v]
			if anchor[v] < 0 {
				anchor[v] = i
			}
		}
	}
	return parent, true
}

// SolveTree solves a tree-structured binary instance backtrack-free:
// directional arc consistency from the leaves to a root, then a single
// greedy top-down assignment pass (Freuder 1982), both run by the join-tree
// engine on the instance's forest join tree. Returns an error when the
// instance is not tree-structured.
func SolveTree(p *csp.Instance) (csp.Result, error) {
	parent, ok := forestJoinTree(p)
	if !ok {
		return csp.Result{}, fmt.Errorf("consistency: instance is not tree-structured")
	}
	res, _, err := csp.SolveJoinTree(p, csp.EdgesOf(p), parent)
	return res, err
}
