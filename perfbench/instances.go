package main

import (
	"math"
	"math/rand"
	"strconv"

	"csdb/internal/csp"
)

// The benchmark generates its own instances instead of calling the
// library's generators, so a change to the program under test can never
// change the inputs it is measured on. Every tractable instance carries a
// planted solution (each table admits the planted tuple), so it is
// satisfiable by construction; the Hard families are the classic
// phase-transition and quasigroup-completion workloads.

// instance is one generated CSP in the benchmark's own representation. The
// correctness gate checks witnesses against it with its own loop.
type instance struct {
	family  string // tree, acyclic, width, schaefer, phase, quasigroup
	vars    int
	dom     int
	domains map[int][]int // per-variable restrictions (quasigroup only)
	cons    []constraint
	body    []byte // the text-format request body
}

// constraint is a scope plus its allowed tuples, stored flat: tuple i
// occupies tuples[i*len(scope) : (i+1)*len(scope)].
type constraint struct {
	scope  []int
	tuples []uint8
}

// satisfiedBy reports whether a is a solution: right length, values in
// range and in each restricted domain, and every constraint's projection
// among its allowed tuples.
func (in *instance) satisfiedBy(a []int) bool {
	if len(a) != in.vars {
		return false
	}
	for v, x := range a {
		if x < 0 || x >= in.dom {
			return false
		}
		if d, ok := in.domains[v]; ok && !containsInt(d, x) {
			return false
		}
	}
	for _, c := range in.cons {
		if !c.allows(a) {
			return false
		}
	}
	return true
}

func (c *constraint) allows(a []int) bool {
	k := len(c.scope)
	for i := 0; i+k <= len(c.tuples); i += k {
		match := true
		for j, v := range c.scope {
			if int(c.tuples[i+j]) != a[v] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func containsInt(s []int, x int) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// toCSP builds the library instance the UNSAT oracle (csp.SolveSeed) runs
// on, from the generated constraints rather than from the request body.
func (in *instance) toCSP() *csp.Instance {
	p := csp.NewInstance(in.vars, in.dom)
	if len(in.domains) > 0 {
		p.Domains = make([][]int, in.vars)
		for v, d := range in.domains {
			p.Domains[v] = append([]int(nil), d...)
		}
	}
	for _, c := range in.cons {
		k := len(c.scope)
		t := csp.NewTable(k)
		row := make([]int, k)
		for i := 0; i+k <= len(c.tuples); i += k {
			for j := range row {
				row[j] = int(c.tuples[i+j])
			}
			t.Add(row)
		}
		p.MustAddConstraint(c.scope, t)
	}
	return p
}

// format renders the instance in the library text format and stores it as
// the request body.
func (in *instance) format() {
	b := make([]byte, 0, 64+in.textLen())
	b = append(b, "vars "...)
	b = strconv.AppendInt(b, int64(in.vars), 10)
	b = append(b, "\ndom "...)
	b = strconv.AppendInt(b, int64(in.dom), 10)
	b = append(b, '\n')
	for v := 0; v < in.vars; v++ {
		d, ok := in.domains[v]
		if !ok {
			continue
		}
		b = append(b, "dom_of "...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, " :"...)
		for _, x := range d {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(x), 10)
		}
		b = append(b, '\n')
	}
	for _, c := range in.cons {
		b = append(b, "con"...)
		for _, v := range c.scope {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, " :"...)
		k := len(c.scope)
		for i := 0; i+k <= len(c.tuples); i += k {
			if i > 0 {
				b = append(b, " |"...)
			}
			for _, x := range c.tuples[i : i+k] {
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(x), 10)
			}
		}
		b = append(b, '\n')
	}
	in.body = b
}

// textLen estimates the formatted size, so generators can grow an instance
// until it reaches a target body size.
func (in *instance) textLen() int {
	n := 0
	for _, c := range in.cons {
		n += conTextLen(c)
	}
	return n
}

func conTextLen(c constraint) int {
	n := 5
	for _, v := range c.scope {
		n += 1 + digits(v)
	}
	return n + len(c.tuples)*2 + 2*(len(c.tuples)/max(1, len(c.scope)))
}

func digits(v int) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// randomTable keeps each tuple over dom^arity with probability keep and
// always keeps the planted tuple.
func randomTable(rng *rand.Rand, arity, dom int, keep float64, planted []int) []uint8 {
	var out []uint8
	row := make([]int, arity)
	var rec func(i int)
	rec = func(i int) {
		if i == arity {
			isPlanted := planted != nil
			for j := range row {
				if planted != nil && row[j] != planted[j] {
					isPlanted = false
				}
			}
			if isPlanted || rng.Float64() < keep {
				for _, x := range row {
					out = append(out, uint8(x))
				}
			}
			return
		}
		for x := 0; x < dom; x++ {
			row[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func project(sigma, scope []int) []int {
	out := make([]int, len(scope))
	for i, v := range scope {
		out[i] = sigma[v]
	}
	return out
}

// The generators below grow an instance until its body reaches target
// bytes; i is the instance's rung on its size ladder.

// genTree grows a random tree-shaped binary CSP (Freuder's class).
func genTree(rng *rand.Rand, target, _ int) *instance {
	const dom = 4
	in := &instance{family: "tree", dom: dom}
	sigma := []int{rng.Intn(dom)}
	size := 0
	for size < target {
		v := len(sigma)
		sigma = append(sigma, rng.Intn(dom))
		scope := []int{rng.Intn(v), v}
		c := constraint{scope: scope, tuples: randomTable(rng, 2, dom, 0.6, project(sigma, scope))}
		in.cons = append(in.cons, c)
		size += conTextLen(c)
	}
	in.vars = len(sigma)
	in.format()
	return in
}

// genAcyclic grows an α-acyclic CSP ear by ear: each new scope takes a
// nonempty part of an existing scope plus fresh variables, so GYO reduces
// the hypergraph in reverse construction order. Arities are 2..3, so the
// instance is never a binary forest.
func genAcyclic(rng *rand.Rand, target, _ int) *instance {
	const dom = 3
	in := &instance{family: "acyclic", dom: dom}
	var sigma []int
	fresh := func(k int) []int {
		vs := make([]int, k)
		for i := range vs {
			vs[i] = len(sigma)
			sigma = append(sigma, rng.Intn(dom))
		}
		return vs
	}
	add := func(scope []int) int {
		c := constraint{scope: scope, tuples: randomTable(rng, len(scope), dom, 0.55, project(sigma, scope))}
		in.cons = append(in.cons, c)
		return conTextLen(c)
	}
	size := add(fresh(3))
	for size < target {
		base := in.cons[rng.Intn(len(in.cons))].scope
		arity := 2 + rng.Intn(2)
		shared := 1 + rng.Intn(min(len(base), arity-1))
		perm := rng.Perm(len(base))
		scope := make([]int, 0, arity)
		for _, i := range perm[:shared] {
			scope = append(scope, base[i])
		}
		scope = append(scope, fresh(arity-shared)...)
		size += add(scope)
	}
	in.vars = len(sigma)
	in.format()
	return in
}

// genWidth grows a full 3-tree (each new vertex joins a random triangle of
// the current graph) with one binary constraint per edge. Full k-trees are
// chordal, so the primal graph has treewidth exactly 3: not a tree, not
// α-acyclic (binary triangles), inside the dispatcher's width budget.
func genWidth(rng *rand.Rand, target, _ int) *instance {
	const dom = 3
	in := &instance{family: "width", dom: dom}
	sigma := []int{rng.Intn(dom), rng.Intn(dom), rng.Intn(dom), rng.Intn(dom)}
	size := 0
	edge := func(u, v int) {
		scope := []int{u, v}
		c := constraint{scope: scope, tuples: randomTable(rng, 2, dom, 0.6, project(sigma, scope))}
		in.cons = append(in.cons, c)
		size += conTextLen(c)
	}
	var cliques [][3]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edge(i, j)
		}
	}
	for drop := 0; drop < 4; drop++ {
		var c [3]int
		k := 0
		for i := 0; i < 4; i++ {
			if i != drop {
				c[k] = i
				k++
			}
		}
		cliques = append(cliques, c)
	}
	for size < target {
		v := len(sigma)
		sigma = append(sigma, rng.Intn(dom))
		c := cliques[rng.Intn(len(cliques))]
		for _, u := range c {
			edge(u, v)
		}
		cliques = append(cliques, [3]int{v, c[1], c[2]}, [3]int{c[0], v, c[2]}, [3]int{c[0], c[1], v})
	}
	in.vars = len(sigma)
	in.format()
	return in
}

// Boolean closure operations of the Schaefer classes the generator draws
// from (the constant classes are left out: their solver does no work).
var schaeferOps = []struct {
	name  string
	arity int
	op    func(a, b, c int) int
}{
	{"horn", 2, func(a, b, _ int) int { return a & b }},
	{"dual-horn", 2, func(a, b, _ int) int { return a | b }},
	{"bijunctive", 3, func(a, b, c int) int { return a&b | b&c | a&c }},
	{"affine", 3, func(a, b, c int) int { return a ^ b ^ c }},
}

// closeRel closes a set of ternary Boolean tuples (a bitmask over the eight
// codes) under a Schaefer polymorphism, applied coordinatewise.
func closeRel(mask uint8, arity int, op func(a, b, c int) int) uint8 {
	bit := func(code, i int) int { return code >> (2 - i) & 1 }
	for {
		next := mask
		for x := 0; x < 8; x++ {
			for y := 0; y < 8; y++ {
				for z := 0; z < 8; z++ {
					if mask>>x&1 == 0 || mask>>y&1 == 0 || mask>>z&1 == 0 {
						continue
					}
					if arity == 2 && z != y {
						continue
					}
					code := 0
					for i := 0; i < 3; i++ {
						code = code<<1 | op(bit(x, i), bit(y, i), bit(z, i))
					}
					next |= 1 << code
				}
			}
		}
		if next == mask {
			return mask
		}
		mask = next
	}
}

// genSchaefer builds a Boolean CSP of ternary constraints on distinct
// variables whose relations are all closed under one Schaefer class's
// polymorphism (so the template is tractable) and all contain the planted
// assignment's projection. The class follows the rung, not the seed, so
// every seed gives each size the same solver.
func genSchaefer(rng *rand.Rand, target, i int) *instance {
	in := &instance{family: "schaefer", dom: 2}
	cls := schaeferOps[i%len(schaeferOps)]
	n := max(8, target/90)
	sigma := make([]int, n)
	for i := range sigma {
		sigma[i] = rng.Intn(2)
	}
	size := 0
	for size < target {
		scope := rng.Perm(n)[:3]
		p := project(sigma, scope)
		mask := uint8(1) << (p[0]<<2 | p[1]<<1 | p[2])
		for s := 1 + rng.Intn(2); s > 0; s-- {
			mask |= 1 << rng.Intn(8)
		}
		mask = closeRel(mask, cls.arity, cls.op)
		var tuples []uint8
		for code := 0; code < 8; code++ {
			if mask>>code&1 == 1 {
				tuples = append(tuples, uint8(code>>2&1), uint8(code>>1&1), uint8(code&1))
			}
		}
		c := constraint{scope: scope, tuples: tuples}
		in.cons = append(in.cons, c)
		size += conTextLen(c)
	}
	in.vars = n
	in.format()
	return in
}

// genPhase draws a model-B binary CSP at the satisfiability phase
// transition: n variables, d values, each pair constrained with probability
// density, tightness at the critical p2 = 1 - d^(-2/(density*(n-1))). About
// half the draws are unsatisfiable.
func genPhase(rng *rand.Rand, n, d int, density float64) *instance {
	in := &instance{family: "phase", vars: n, dom: d}
	keep := math.Pow(float64(d), -2/(density*float64(n-1)))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				in.cons = append(in.cons, constraint{scope: []int{i, j}, tuples: randomTable(rng, 2, d, keep, nil)})
			}
		}
	}
	in.format()
	return in
}

// genQuasigroup is quasigroup completion: an n×n Latin square (rows and
// columns are disequality cliques) with all but `holes` cells revealed as
// singleton domains, taken from a scrambled cyclic square, so it is
// satisfiable by construction.
func genQuasigroup(rng *rand.Rand, n, holes int) *instance {
	in := &instance{family: "quasigroup", vars: n * n, dom: n, domains: map[int][]int{}}
	var neq []uint8
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				neq = append(neq, uint8(a), uint8(b))
			}
		}
	}
	for i := 0; i < n; i++ {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				in.cons = append(in.cons,
					constraint{scope: []int{i*n + a, i*n + b}, tuples: neq},
					constraint{scope: []int{a*n + i, b*n + i}, tuples: neq})
			}
		}
	}
	rowP, colP, symP := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	hole := make([]bool, n*n)
	for _, c := range rng.Perm(n * n)[:holes] {
		hole[c] = true
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !hole[i*n+j] {
				in.domains[i*n+j] = []int{symP[(rowP[i]+colP[j])%n]}
			}
		}
	}
	in.format()
	return in
}
