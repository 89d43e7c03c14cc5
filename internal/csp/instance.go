// Package csp implements constraint-satisfaction problem instances in the
// classic AI formulation of Section 2 of the paper — a set of variables, a
// set of values, and a collection of constraints (t, R) — together with:
//
//   - the normalizations the paper performs "without loss of generality"
//     (eliminating repeated variables in constraint scopes, consolidating
//     constraints on the same scope, coherence closure);
//   - the translation between CSP instances and homomorphism instances
//     (A_P, B_P) of relational structures, in both directions;
//   - complete solvers: chronological backtracking (BT), forward checking
//     (FC), and maintaining generalized arc consistency (MAC), with
//     MRV+degree variable ordering and search statistics;
//   - the join-evaluation solver of Proposition 2.1.
package csp

import (
	"fmt"
	"sort"
	"strings"

	"csdb/internal/relation"
)

// Table is a finite relation over values: the R of a constraint (t, R).
// Tables are deduplicated sets of tuples with O(1) membership. A Table is a
// relation.Set, the tuple store shared with relation.Relation and
// structure.Interp: Add keeps the index and the row views current, so a
// built table is never mutated by a read and may be read from many
// goroutines at once (the portfolio's lanes all read one instance).
type Table struct {
	set relation.Set
}

// NewTable creates an empty table of the given arity (>= 1).
func NewTable(arity int) *Table {
	if arity < 1 {
		panic(fmt.Sprintf("csp: table arity %d", arity))
	}
	return &Table{set: relation.MakeSet(arity)}
}

// TableOf builds a table from rows; all rows must share the given arity.
func TableOf(arity int, rows ...[]int) *Table {
	t := NewTable(arity)
	t.Grow(len(rows))
	for _, r := range rows {
		t.Add(r)
	}
	return t
}

// Arity returns the table's arity.
func (t *Table) Arity() int { return t.set.Arity() }

// Len returns the number of tuples.
func (t *Table) Len() int { return t.set.Len() }

// Tuples returns the tuples, as views into the table's storage. Do not
// modify.
func (t *Table) Tuples() [][]int { return t.set.Tuples() }

// Grow reserves room for n more tuples. It is a hint only.
func (t *Table) Grow(n int) { t.set.Grow(n) }

// Add inserts a tuple (copied); duplicates are ignored. It panics on arity
// mismatch, which is a programming error.
func (t *Table) Add(row []int) { t.set.Add(row) }

// Has reports whether row is in the table.
func (t *Table) Has(row []int) bool { return t.set.Contains(row) }

// Clone returns a deep copy.
func (t *Table) Clone() *Table { return &Table{set: t.set.Clone()} }

// Key returns a canonical content key: arity plus the sorted tuple keys.
// Two tables with the same key contain exactly the same tuples.
func (t *Table) Key() string {
	keys := make([]string, 0, t.Len())
	for _, row := range t.Tuples() {
		keys = append(keys, rowKey(row))
	}
	sort.Strings(keys)
	return fmt.Sprintf("%d|%s", t.Arity(), strings.Join(keys, ";"))
}

// Intersect returns the table containing the tuples present in both t and u.
func (t *Table) Intersect(u *Table) (*Table, error) {
	if t.Arity() != u.Arity() {
		return nil, fmt.Errorf("csp: intersecting tables of arity %d and %d", t.Arity(), u.Arity())
	}
	out := NewTable(t.Arity())
	for _, r := range t.Tuples() {
		if u.Has(r) {
			out.Add(r)
		}
	}
	return out, nil
}

func rowKey(row []int) string {
	return relation.Tuple(row).Key()
}

// Constraint is a pair (t, R): an ordered scope of variable indices and a
// table of allowed value tuples of the same arity.
type Constraint struct {
	Scope []int
	Table *Table
}

// Instance is a CSP instance (V, D, C) with V = {0..Vars-1} and
// D = {0..Dom-1}. Optional per-variable domain restrictions live in Domains
// (nil means every variable ranges over all of D).
type Instance struct {
	Vars        int
	Dom         int
	Names       []string // optional variable labels
	Domains     [][]int  // optional: Domains[v] lists the allowed values of v
	Constraints []*Constraint
}

// NewInstance returns an instance with the given numbers of variables and
// values and no constraints.
func NewInstance(vars, dom int) *Instance {
	return &Instance{Vars: vars, Dom: dom}
}

// AddConstraint appends the constraint (scope, table) after validating it.
func (p *Instance) AddConstraint(scope []int, table *Table) error {
	if len(scope) != table.Arity() {
		return fmt.Errorf("csp: scope length %d does not match table arity %d", len(scope), table.Arity())
	}
	for _, v := range scope {
		if v < 0 || v >= p.Vars {
			return fmt.Errorf("csp: scope variable %d outside [0,%d)", v, p.Vars)
		}
	}
	for _, row := range table.Tuples() {
		for _, val := range row {
			if val < 0 || val >= p.Dom {
				return fmt.Errorf("csp: table value %d outside [0,%d)", val, p.Dom)
			}
		}
	}
	sc := make([]int, len(scope))
	copy(sc, scope)
	p.Constraints = append(p.Constraints, &Constraint{Scope: sc, Table: table})
	return nil
}

// MustAddConstraint is AddConstraint but panics on error.
func (p *Instance) MustAddConstraint(scope []int, table *Table) {
	if err := p.AddConstraint(scope, table); err != nil {
		panic(err)
	}
}

// VarName returns the label of variable v.
func (p *Instance) VarName(v int) string {
	if p.Names != nil && v >= 0 && v < len(p.Names) {
		return p.Names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// DomainOf returns the allowed values of variable v as a slice.
func (p *Instance) DomainOf(v int) []int {
	if p.Domains != nil && p.Domains[v] != nil {
		return p.Domains[v]
	}
	all := make([]int, p.Dom)
	for i := range all {
		all[i] = i
	}
	return all
}

// Clone returns a deep copy of the instance (tables are copied).
func (p *Instance) Clone() *Instance {
	c := &Instance{Vars: p.Vars, Dom: p.Dom}
	if p.Names != nil {
		c.Names = append([]string(nil), p.Names...)
	}
	if p.Domains != nil {
		c.Domains = make([][]int, len(p.Domains))
		for i, d := range p.Domains {
			if d != nil {
				c.Domains[i] = append([]int(nil), d...)
			}
		}
	}
	for _, con := range p.Constraints {
		c.MustAddConstraint(con.Scope, con.Table.Clone())
	}
	return c
}

// Satisfies reports whether the total assignment (len == Vars) satisfies all
// constraints and per-variable domains.
func (p *Instance) Satisfies(assignment []int) bool {
	if len(assignment) != p.Vars {
		return false
	}
	for v, val := range assignment {
		if val < 0 || val >= p.Dom {
			return false
		}
		if p.Domains != nil && p.Domains[v] != nil && !containsInt(p.Domains[v], val) {
			return false
		}
	}
	row := make([]int, 8)
	for _, con := range p.Constraints {
		if cap(row) < len(con.Scope) {
			row = make([]int, len(con.Scope))
		}
		r := row[:len(con.Scope)]
		for i, v := range con.Scope {
			r[i] = assignment[v]
		}
		if !con.Table.Has(r) {
			return false
		}
	}
	return true
}

// NormalizeDistinct rewrites every constraint whose scope repeats a variable
// into an equivalent constraint with distinct scope variables, per the
// standard reduction in Section 2: tuples disagreeing on the repeated
// positions are deleted and the duplicate column is projected out. The
// result is a new instance with the same solution set; a constraint whose
// scope is already distinct keeps its table (tables are read-only once
// built, so sharing one is safe).
func (p *Instance) NormalizeDistinct() *Instance {
	out := &Instance{Vars: p.Vars, Dom: p.Dom, Names: p.Names, Domains: p.Domains}
	for _, con := range p.Constraints {
		scope, table := dedupScope(con.Scope, con.Table)
		out.MustAddConstraint(scope, table)
	}
	return out
}

// dedupScope returns scope and table as they are when the scope's variables
// are distinct, and otherwise the projection of the rows agreeing on every
// repeated variable onto its first occurrences.
func dedupScope(scope []int, table *Table) ([]int, *Table) {
	if distinctVars(scope) {
		return scope, table
	}
	first := make(map[int]int) // variable -> first position
	keep := make([]int, 0, len(scope))
	newScope := make([]int, 0, len(scope))
	for i, v := range scope {
		if _, seen := first[v]; !seen {
			first[v] = i
			keep = append(keep, i)
			newScope = append(newScope, v)
		}
	}
	out := NewTable(len(keep))
	proj := make([]int, len(keep))
rows:
	for _, row := range table.Tuples() {
		for i, v := range scope {
			if row[i] != row[first[v]] {
				continue rows // disagrees on a repeated variable
			}
		}
		for j, i := range keep {
			proj[j] = row[i]
		}
		out.Add(proj)
	}
	return newScope, out
}

func distinctVars(scope []int) bool {
	for i, v := range scope {
		for _, w := range scope[:i] {
			if v == w {
				return false
			}
		}
	}
	return true
}

// Consolidate merges constraints that share the same ordered scope by
// intersecting their tables, so every scope occurs at most once (the "single
// constraint per tuple of variables" convention of Section 2). A scope that
// occurs once keeps its table; a merged scope gets a new one.
func (p *Instance) Consolidate() *Instance {
	out := &Instance{Vars: p.Vars, Dom: p.Dom, Names: p.Names, Domains: p.Domains}
	byScope := make(map[string]*Table)
	order := make([]string, 0, len(p.Constraints))
	scopes := make(map[string][]int)
	for _, con := range p.Constraints {
		k := rowKey(con.Scope)
		if existing, ok := byScope[k]; ok {
			merged, err := existing.Intersect(con.Table)
			if err != nil {
				panic(err) // impossible: same scope implies same arity
			}
			byScope[k] = merged
		} else {
			byScope[k] = con.Table
			order = append(order, k)
			scopes[k] = con.Scope
		}
	}
	for _, k := range order {
		out.MustAddConstraint(scopes[k], byScope[k])
	}
	return out
}

// Normalize applies NormalizeDistinct then Consolidate.
func (p *Instance) Normalize() *Instance {
	return p.NormalizeDistinct().Consolidate()
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
