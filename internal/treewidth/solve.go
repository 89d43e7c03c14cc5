package treewidth

import (
	"fmt"
	"sort"

	"csdb/internal/csp"
	"csdb/internal/graph"
)

// This file implements the algorithmic content of Theorem 6.2: a CSP
// instance whose primal (Gaifman) graph has a tree decomposition of width w
// is solvable in time O(#bags · d^(w+1) · poly) by dynamic programming over
// the decomposition — polynomial for fixed w.

// PrimalGraph returns the Gaifman graph of the instance: one vertex per
// variable, with an edge between every two variables sharing a constraint
// scope.
func PrimalGraph(p *csp.Instance) *graph.Graph {
	g := graph.New(p.Vars)
	for _, con := range p.Constraints {
		for i := 0; i < len(con.Scope); i++ {
			for j := i + 1; j < len(con.Scope); j++ {
				if con.Scope[i] != con.Scope[j] {
					g.AddEdge(con.Scope[i], con.Scope[j])
				}
			}
		}
	}
	return g
}

// SolveDecomposed decides the instance by DP over the given tree
// decomposition of its primal graph and returns a solution when one exists.
// The decomposition must be valid for PrimalGraph(p); every constraint
// scope, being a clique of the primal graph, fits inside some bag. The DP is
// the shared join-tree engine (csp.SolveJoinTree): each bag is an edge whose
// rows are the bag assignments satisfying the constraints placed in it, and
// the decomposition rooted at bag 0 is the join tree.
func SolveDecomposed(p *csp.Instance, d *Decomposition) (csp.Result, error) {
	if p.Vars == 0 {
		return csp.Result{Found: true, Solution: []int{}}, nil
	}
	rows, nodes, err := bagRows(p, d)
	if err != nil {
		return csp.Result{}, err
	}
	edges := make([]csp.JoinEdge, len(rows))
	for b, r := range rows {
		edges[b] = csp.JoinEdge{Scope: d.Bags[b], Rows: r}
	}
	parent, _ := d.Rooted(0)
	res, _, err := csp.SolveJoinTree(p, edges, parent)
	if err != nil {
		return csp.Result{}, err
	}
	res.Stats.Nodes = nodes
	return res, nil
}

// bagRows validates d against p's primal graph, places every constraint in
// a bag containing its scope, and returns per bag the assignments of the
// bag's variables (in bag order) that satisfy the constraints placed there,
// as row views over one arena per bag. It is the bag loader of both the
// decision and the counting DP. nodes counts the partial assignments tried.
func bagRows(p *csp.Instance, d *Decomposition) (rows [][][]int, nodes int64, err error) {
	if err := d.Validate(PrimalGraph(p)); err != nil {
		return nil, 0, fmt.Errorf("treewidth: invalid decomposition: %w", err)
	}
	// checks[b][i] lists the constraints of bag b whose last variable in bag
	// order sits at position i: they are checked as soon as it is assigned.
	checks := make([][][]placed, d.NumBags())
	for _, con := range p.Constraints {
		b := d.BagContaining(con.Scope)
		if b < 0 {
			return nil, 0, fmt.Errorf("treewidth: no bag contains scope %v", con.Scope)
		}
		c := placed{table: con.Table, pos: make([]int, len(con.Scope))}
		last := 0
		for k, v := range con.Scope {
			c.pos[k] = sort.SearchInts(d.Bags[b], v)
			last = max(last, c.pos[k])
		}
		if checks[b] == nil {
			checks[b] = make([][]placed, len(d.Bags[b]))
		}
		checks[b][last] = append(checks[b][last], c)
	}
	e := &bagEnum{p: p, all: make([]int, p.Dom)}
	for v := range e.all {
		e.all[v] = v
	}
	rows = make([][][]int, d.NumBags())
	for b, bag := range d.Bags {
		rows[b] = e.rows(bag, checks[b])
	}
	return rows, e.nodes, nil
}

// placed is a constraint placed in a bag: pos[k] is the bag position of its
// k-th scope variable.
type placed struct {
	table *csp.Table
	pos   []int
}

// bagEnum enumerates one bag's satisfying assignments depth first.
type bagEnum struct {
	p      *csp.Instance
	all    []int   // 0..Dom-1, the domain of an unrestricted variable
	doms   [][]int // per bag position
	checks [][]placed
	assign []int
	key    []int // scratch row for table lookups
	arena  []int
	nodes  int64
}

func (e *bagEnum) rows(bag []int, checks [][]placed) [][]int {
	e.doms = e.doms[:0]
	for _, v := range bag {
		e.doms = append(e.doms, e.domain(v))
	}
	e.checks, e.assign, e.arena = checks, make([]int, len(bag)), nil
	e.extend(0)
	w := len(bag)
	rows := make([][]int, len(e.arena)/w)
	for i := range rows {
		rows[i] = e.arena[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// domain returns v's in-range domain values.
func (e *bagEnum) domain(v int) []int {
	if e.p.Domains == nil || e.p.Domains[v] == nil {
		return e.all
	}
	var dom []int
	for _, val := range e.p.Domains[v] {
		if val >= 0 && val < e.p.Dom {
			dom = append(dom, val)
		}
	}
	return dom
}

func (e *bagEnum) extend(i int) {
	if i == len(e.assign) {
		e.arena = append(e.arena, e.assign...)
		return
	}
	for _, val := range e.doms[i] {
		e.nodes++
		e.assign[i] = val
		if e.allows(i) {
			e.extend(i + 1)
		}
	}
}

// allows checks the constraints whose last bag position is i.
func (e *bagEnum) allows(i int) bool {
	if e.checks == nil {
		return true
	}
	for _, c := range e.checks[i] {
		e.key = e.key[:0]
		for _, pos := range c.pos {
			e.key = append(e.key, e.assign[pos])
		}
		if !c.table.Has(e.key) {
			return false
		}
	}
	return true
}

// Solve decomposes the primal graph with the best heuristic and runs the DP.
func Solve(p *csp.Instance) (csp.Result, error) {
	d := BestHeuristic(PrimalGraph(p))
	return SolveDecomposed(p, d)
}
