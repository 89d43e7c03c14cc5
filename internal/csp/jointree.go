package csp

import (
	"fmt"

	"csdb/internal/relation"
)

// This file is the one polynomial-time engine behind the dispatcher's tree,
// acyclic and width routes (Section 6 of the paper). Freuder's tree
// algorithm (the width-1 case of Theorem 6.2), Yannakakis' algorithm on an
// α-acyclic instance and the Theorem 6.2 DP on a width-k decomposition are
// one algorithm over a join tree: a semijoin full reducer (leaves to roots,
// then roots to leaves), after which a root-first pass picks each edge's row
// without backtracking. The routes differ only in how they build the join
// tree's edges.

// JoinEdge is one node of a join tree: a scope of distinct variables and the
// rows allowed over it. SolveJoinTree reads Rows and never writes them, so
// they may be a table's own row views.
type JoinEdge struct {
	Scope []int
	Rows  [][]int
}

// EdgesOf returns one join-tree edge per constraint, in constraint order.
// A constraint whose scope variables are distinct contributes its scope and
// its table's row views as they are; a repeated-variable scope is first
// projected as NormalizeDistinct does.
func EdgesOf(p *Instance) []JoinEdge {
	edges := make([]JoinEdge, len(p.Constraints))
	for i, con := range p.Constraints {
		scope, table := dedupScope(con.Scope, con.Table)
		edges[i] = JoinEdge{Scope: scope, Rows: table.Tuples()}
	}
	return edges
}

// ReduceCounts tallies one SolveJoinTree call, for the caller to flush into
// its own metrics once.
type ReduceCounts struct {
	Semijoins int64 // semijoin steps across the up and down passes
	Loaded    int64 // rows entering the reducer, after the domain filter
	Reduced   int64 // rows left when the reducer stopped
}

// SolveJoinTree decides p from a join tree over edges: parent[i] is the
// parent of edge i, or -1 for a root. Several roots make a forest, and edges
// in different trees must share no variable; within a tree, a variable
// shared by two edges must occur in every edge on the path between them.
// The edges must together imply every constraint of p. Variables in no edge
// take the first value of their domain, and an empty domain makes p
// unsatisfiable. A SAT answer is checked with Satisfies; an error reports a
// malformed join tree or edges that do not match p.
func SolveJoinTree(p *Instance, edges []JoinEdge, parent []int) (Result, ReduceCounts, error) {
	var n ReduceCounts
	m := len(edges)
	if len(parent) != m {
		return Result{}, n, fmt.Errorf("csp: join tree has %d parents for %d edges", len(parent), m)
	}
	order, err := topDown(parent)
	if err != nil {
		return Result{}, n, err
	}

	// Load each edge's rows that fit the variables' domains. The row slices
	// are the reducer's own (one backing array for all edges); the rows
	// themselves stay views.
	allowed := domainMasks(p)
	total := 0
	for _, e := range edges {
		total += len(e.Rows)
	}
	backing := make([][]int, 0, total)
	rows := make([][][]int, m)
	for i, e := range edges {
		start := len(backing)
	load:
		for _, row := range e.Rows {
			for j, v := range e.Scope {
				if allowed != nil && allowed[v] != nil && !allowed[v][row[j]] {
					continue load
				}
			}
			backing = append(backing, row)
		}
		rows[i] = backing[start:len(backing):len(backing)]
		n.Loaded += int64(len(rows[i]))
	}
	for _, r := range rows {
		if len(r) == 0 {
			n.Reduced = countRows(rows)
			return Result{}, n, nil
		}
	}

	// Shared columns of each edge with its parent: inChild[i][k] and
	// inParent[i][k] hold the same variable.
	inChild := make([][]int, m)
	inParent := make([][]int, m)
	for i, pa := range parent {
		if pa >= 0 {
			inChild[i], inParent[i] = SharedColumns(edges[i].Scope, edges[pa].Scope)
		}
	}

	// Up pass, children before parents: parent ⋉ child. An edge that shares
	// nothing with its parent constrains it only by being nonempty, which
	// every edge still is when its parent is reduced.
	for k := m - 1; k >= 0; k-- {
		i := order[k]
		pa := parent[i]
		if pa < 0 || len(inChild[i]) == 0 {
			continue
		}
		rows[pa] = semijoin(rows[pa], inParent[i], rows[i], inChild[i])
		n.Semijoins++
		if len(rows[pa]) == 0 {
			n.Reduced = countRows(rows)
			return Result{}, n, nil
		}
	}
	// Down pass, parents before children: child ⋉ parent. After the up pass
	// every parent row has a partner in each child, so nothing empties.
	for _, i := range order {
		pa := parent[i]
		if pa < 0 || len(inChild[i]) == 0 {
			continue
		}
		rows[i] = semijoin(rows[i], inChild[i], rows[pa], inParent[i])
		n.Semijoins++
	}
	n.Reduced = countRows(rows)

	// Extraction, roots first. The variables of an edge assigned before it
	// are shared with its parent (join-tree connectedness), and the down pass
	// left a row agreeing with the parent's pick, so the first compatible
	// row always extends.
	sol := make([]int, p.Vars)
	for v := range sol {
		sol[v] = -1
	}
	for _, i := range order {
		picked := pickRow(rows[i], edges[i].Scope, sol)
		if picked == nil {
			return Result{}, n, fmt.Errorf("csp: join tree extraction found no compatible row (edges do not form a join tree)")
		}
		for j, v := range edges[i].Scope {
			sol[v] = picked[j]
		}
	}
	for v := range sol {
		if sol[v] >= 0 {
			continue
		}
		val := firstInDomain(p, v)
		if val < 0 {
			return Result{}, n, nil
		}
		sol[v] = val
	}
	if !p.Satisfies(sol) {
		return Result{}, n, fmt.Errorf("csp: join tree solution violates the instance (edges do not imply its constraints)")
	}
	return Result{Found: true, Solution: sol}, n, nil
}

func countRows(rows [][][]int) int64 {
	var n int64
	for _, r := range rows {
		n += int64(len(r))
	}
	return n
}

// topDown orders the nodes of the forest given by parent so that every node
// comes after its parent, roots first. It rejects a parent array with a
// cycle or an out-of-range parent.
func topDown(parent []int) ([]int, error) {
	m := len(parent)
	// Children in CSR form, with the roots as the children of -1: run pa+1
	// of kids starts at first[pa+1] once the counts are summed.
	first := make([]int, m+2)
	for i, pa := range parent {
		if pa < -1 || pa >= m {
			return nil, fmt.Errorf("csp: join tree parent %d of edge %d out of range", pa, i)
		}
		first[pa+2]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int, m)
	for i, pa := range parent {
		kids[first[pa+1]] = i
		first[pa+1]++
	}
	// Each cursor has moved to the end of its run: the roots are now
	// kids[:first[0]] and node i's children kids[first[i]:first[i+1]].
	order := make([]int, 0, m)
	order = append(order, kids[:first[0]]...)
	for h := 0; h < len(order); h++ {
		i := order[h]
		order = append(order, kids[first[i]:first[i+1]]...)
	}
	if len(order) != m {
		return nil, fmt.Errorf("csp: join tree parent array has a cycle")
	}
	return order, nil
}

// domainMasks returns the membership mask of every restricted variable's
// domain, or nil when no variable is restricted.
func domainMasks(p *Instance) [][]bool {
	if p.Domains == nil {
		return nil
	}
	masks := make([][]bool, p.Vars)
	for v, dom := range p.Domains {
		if dom == nil {
			continue
		}
		masks[v] = make([]bool, p.Dom)
		for _, val := range dom {
			if val >= 0 && val < p.Dom {
				masks[v][val] = true
			}
		}
	}
	return masks
}

// firstInDomain returns the first in-range value of v's domain, or -1 when
// it has none.
func firstInDomain(p *Instance, v int) int {
	if p.Domains == nil || p.Domains[v] == nil {
		if p.Dom > 0 {
			return 0
		}
		return -1
	}
	for _, val := range p.Domains[v] {
		if val >= 0 && val < p.Dom {
			return val
		}
	}
	return -1
}

// SharedColumns returns, for each variable of child also in parent, its
// column in child and its column in parent (aligned).
func SharedColumns(child, parent []int) (inChild, inParent []int) {
	for i, v := range child {
		for j, w := range parent {
			if v == w {
				inChild = append(inChild, i)
				inParent = append(inParent, j)
				break
			}
		}
	}
	return inChild, inParent
}

// semijoin keeps the target rows whose projection on tCols matches the
// projection on sCols of some source row, filtering target in place. The
// source projections are keyed in a relation.Set.
func semijoin(target [][]int, tCols []int, source [][]int, sCols []int) [][]int {
	keys := relation.MakeSet(len(sCols))
	keys.Grow(len(source))
	key := make([]int, len(sCols))
	for _, row := range source {
		for j, c := range sCols {
			key[j] = row[c]
		}
		keys.Add(key)
	}
	kept := target[:0]
	for _, row := range target {
		for j, c := range tCols {
			key[j] = row[c]
		}
		if keys.Contains(key) {
			kept = append(kept, row)
		}
	}
	return kept
}

// pickRow returns the first row agreeing with every variable of scope that
// sol already assigns, or nil.
func pickRow(rows [][]int, scope []int, sol []int) []int {
rows:
	for _, row := range rows {
		for j, v := range scope {
			if sol[v] >= 0 && sol[v] != row[j] {
				continue rows
			}
		}
		return row
	}
	return nil
}
