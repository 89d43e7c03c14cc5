// Package hypergraph implements query hypergraphs and the structural
// machinery Section 6 of the paper surveys beyond treewidth: α-acyclicity
// via GYO reduction, join trees, Yannakakis' semijoin algorithm for acyclic
// joins, and (generalized) hypertree decompositions with a small-k width
// search — "the most powerful way to obtain tractability results for
// constraint satisfaction using the topology of the input instance".
package hypergraph

import (
	"fmt"
	"sort"

	"csdb/internal/cq"
	"csdb/internal/csp"
)

// Hypergraph has vertices 0..N-1 and hyperedges given as sorted vertex sets.
type Hypergraph struct {
	N     int
	Edges [][]int
	// VertexNames optionally labels vertices (e.g. CQ variable names).
	VertexNames []string
}

// New creates a hypergraph with n vertices and no edges.
func New(n int) *Hypergraph { return &Hypergraph{N: n} }

// AddEdge appends a hyperedge (deduplicated, sorted).
func (h *Hypergraph) AddEdge(vs ...int) error {
	if len(vs) == 0 {
		return fmt.Errorf("hypergraph: empty hyperedge")
	}
	set := make(map[int]bool)
	for _, v := range vs {
		if v < 0 || v >= h.N {
			return fmt.Errorf("hypergraph: vertex %d outside [0,%d)", v, h.N)
		}
		set[v] = true
	}
	edge := make([]int, 0, len(set))
	for v := range set {
		edge = append(edge, v)
	}
	sort.Ints(edge)
	h.Edges = append(h.Edges, edge)
	return nil
}

// MustAddEdge is AddEdge but panics on error.
func (h *Hypergraph) MustAddEdge(vs ...int) {
	if err := h.AddEdge(vs...); err != nil {
		panic(err)
	}
}

// FromQuery builds the hypergraph of a conjunctive query: vertices are the
// query's variables, one hyperedge per subgoal. The returned variable index
// maps names to vertices.
func FromQuery(q *cq.Query) (*Hypergraph, map[string]int, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	h := New(len(vars))
	h.VertexNames = vars
	for _, a := range q.Body {
		vs := make([]int, len(a.Args))
		for i, v := range a.Args {
			vs[i] = idx[v]
		}
		if err := h.AddEdge(vs...); err != nil {
			return nil, nil, err
		}
	}
	return h, idx, nil
}

// FromInstance builds the constraint hypergraph of a CSP instance: vertices
// are variables, one hyperedge per constraint scope.
func FromInstance(p *csp.Instance) *Hypergraph {
	h := New(p.Vars)
	for _, con := range p.Constraints {
		h.MustAddEdge(con.Scope...)
	}
	return h
}

// JoinTree is a join tree over the hyperedges of a hypergraph: Parent[i] is
// the parent edge index of edge i (-1 for the root), with the connectedness
// property: for any two edges, their shared vertices appear in every edge on
// the tree path between them.
type JoinTree struct {
	Parent []int
	Root   int
}

// GYO runs the Graham–Yu–Özsoyoğlu reduction and reports whether the
// hypergraph is α-acyclic; when it is, a join tree over the original edge
// indices is returned.
//
// The reduction repeatedly (a) removes vertices occurring in exactly one
// edge ("ears' private vertices") and (b) removes an edge that becomes a
// subset of another edge, attaching it to that edge in the join tree. The
// hypergraph is acyclic iff everything reduces away.
func (h *Hypergraph) GYO() (acyclic bool, jt *JoinTree) {
	m := len(h.Edges)
	if m == 0 {
		return true, &JoinTree{Parent: nil, Root: -1}
	}
	// Working copies of edge vertex sets.
	sets := make([]map[int]bool, m)
	alive := make([]bool, m)
	for i, e := range h.Edges {
		sets[i] = make(map[int]bool, len(e))
		for _, v := range e {
			sets[i][v] = true
		}
		alive[i] = true
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	aliveCount := m

	occurrences := func(v int) []int {
		var occ []int
		for i := range sets {
			if alive[i] && sets[i][v] {
				occ = append(occ, i)
			}
		}
		return occ
	}

	for {
		changed := false
		// (a) Remove vertices in exactly one live edge.
		for v := 0; v < h.N; v++ {
			occ := occurrences(v)
			if len(occ) == 1 {
				if sets[occ[0]][v] {
					delete(sets[occ[0]], v)
					changed = true
				}
			}
		}
		// (b) Remove an edge contained in another live edge.
		for i := 0; i < m; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if i == j || !alive[j] {
					continue
				}
				if subset(sets[i], sets[j]) {
					alive[i] = false
					parent[i] = j
					aliveCount--
					changed = true
					break
				}
			}
		}
		if aliveCount == 1 {
			// Acyclic: the surviving edge is the root.
			root := -1
			for i := range alive {
				if alive[i] {
					root = i
				}
			}
			// Compress parents of removed edges onto live ancestors: the
			// recorded parents already point at edges that were alive at
			// removal time, which may themselves have been removed later —
			// that is fine, the pointers still form a tree rooted at root.
			return true, &JoinTree{Parent: parent, Root: root}
		}
		if !changed {
			return false, nil
		}
	}
}

// IsAcyclic reports α-acyclicity.
func (h *Hypergraph) IsAcyclic() bool {
	ac, _ := h.GYO()
	return ac
}

func subset(a, b map[int]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// ValidateJoinTree checks the join-tree connectedness property against the
// hypergraph: for every vertex, the edges containing it form a connected
// subtree. It runs in O(Σ|e| log |e|): a subforest of a tree is connected
// iff it has one tree link fewer than nodes, so it counts, per vertex, the
// edges containing it and the parent links both ends of which contain it.
func (h *Hypergraph) ValidateJoinTree(jt *JoinTree) error {
	m := len(h.Edges)
	if m == 0 {
		return nil
	}
	if len(jt.Parent) != m {
		return fmt.Errorf("hypergraph: join tree over %d edges for %d hyperedges", len(jt.Parent), m)
	}
	if jt.Root < 0 || jt.Root >= m || jt.Parent[jt.Root] != -1 {
		return fmt.Errorf("hypergraph: bad join tree root")
	}
	// Tree-ness: every edge reaches the root. reach[i] is 0 while unknown,
	// 1 while on the path being walked and 2 once known to reach the root.
	reach := make([]int8, m)
	reach[jt.Root] = 2
	for i := range reach {
		x := i
		for reach[x] == 0 {
			reach[x] = 1
			x = jt.Parent[x]
			if x < 0 || x >= m {
				return fmt.Errorf("hypergraph: join tree dangling parent on the path from edge %d", i)
			}
		}
		if reach[x] == 1 {
			return fmt.Errorf("hypergraph: join tree cycle through edge %d", x)
		}
		for y := i; reach[y] == 1; y = jt.Parent[y] {
			reach[y] = 2
		}
	}
	// Connectedness: per vertex, containing edges minus linking edges is 1.
	comps := make([]int, h.N)
	for i, e := range h.Edges {
		pa := jt.Parent[i]
		for _, v := range e {
			if v < 0 || v >= h.N {
				return fmt.Errorf("hypergraph: edge %d has vertex %d outside [0,%d)", i, v, h.N)
			}
			comps[v]++
			if pa >= 0 && containsSorted(h.Edges[pa], v) {
				comps[v]--
			}
		}
	}
	for v, c := range comps {
		if c > 1 {
			return fmt.Errorf("hypergraph: vertex %d appears in %d disconnected join-tree components", v, c)
		}
	}
	return nil
}

func containsSorted(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}
