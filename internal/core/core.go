// Package core is the unifying public API of the library, realizing the
// central message of the paper: a constraint-satisfaction problem, a
// homomorphism problem, a conjunctive-query evaluation, and a
// conjunctive-query containment check are the same object viewed from four
// angles (Propositions 2.1–2.3).
//
// A Problem can be created from any of the views and converted to the
// others. Solve runs one entry of internal/dispatch's solver table; the
// default, dispatch.Auto, routes by structure: tree-shaped instances to
// Freuder's backtrack-free solver, Boolean templates in one of Schaefer's
// classes to the dedicated polynomial solver, α-acyclic hypergraphs to the
// Yannakakis full reducer, small-treewidth primal graphs to the
// decomposition DP of Theorem 6.2, and only the rest to the search
// portfolio (the join-evaluation solver of Proposition 2.1 and the single
// search engines stay available by name).
package core

import (
	"context"
	"fmt"
	"math/big"

	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/dispatch"
	"csdb/internal/structure"
	"csdb/internal/treewidth"
)

// Problem is a constraint-satisfaction / homomorphism / query-evaluation
// problem. Exactly one canonical CSP instance backs it; the structure and
// query views are materialized on demand.
type Problem struct {
	inst *csp.Instance
	a, b *structure.Structure // cached homomorphism view
}

// FromCSP wraps a CSP instance.
func FromCSP(p *csp.Instance) *Problem {
	return &Problem{inst: p}
}

// FromStructures builds the problem "is there a homomorphism a → b?".
func FromStructures(a, b *structure.Structure) (*Problem, error) {
	inst, err := csp.FromStructures(a, b)
	if err != nil {
		return nil, err
	}
	return &Problem{inst: inst, a: a, b: b}, nil
}

// FromBooleanQuery builds the problem "is the Boolean conjunctive query q
// true in db?" — by Proposition 2.2 this is the homomorphism problem from
// q's canonical database into db.
func FromBooleanQuery(q *cq.Query, db *structure.Structure) (*Problem, error) {
	if len(q.Head) != 0 {
		return nil, fmt.Errorf("core: FromBooleanQuery requires a Boolean query, got %d head variables", len(q.Head))
	}
	canon, _, err := q.CanonicalDB(db.Voc(), false)
	if err != nil {
		return nil, err
	}
	return FromStructures(canon, db)
}

// CSP returns the canonical CSP instance view.
func (p *Problem) CSP() *csp.Instance { return p.inst }

// Structures returns the homomorphism view (A_P, B_P).
func (p *Problem) Structures() (*structure.Structure, *structure.Structure, error) {
	if p.a != nil {
		return p.a, p.b, nil
	}
	a, b, err := csp.ToStructures(p.inst)
	if err != nil {
		return nil, nil, err
	}
	p.a, p.b = a, b
	return a, b, nil
}

// Query returns the conjunctive-query view of Proposition 2.3: the Boolean
// canonical query φ_A and the database B, such that the problem is solvable
// iff φ_A is true in B.
func (p *Problem) Query() (*cq.Query, *structure.Structure, error) {
	a, b, err := p.Structures()
	if err != nil {
		return nil, nil, err
	}
	q, err := cq.StructureQuery(a)
	if err != nil {
		return nil, nil, err
	}
	return q, b, nil
}

// Options configures Solve.
type Options struct {
	// Strategy is the solver-table entry to run. The zero value is
	// dispatch.Auto: classify the instance's structure and run the matching
	// polynomial solver, reaching the portfolio only for Hard instances.
	Strategy dispatch.Strategy
}

// Result reports the outcome of Solve.
type Result struct {
	Satisfiable bool
	Assignment  []int
	// Route is the structural class whose solver produced the verdict. Every
	// strategy other than dispatch.Auto runs on the Hard route.
	Route dispatch.Class
	Stats csp.Stats
}

// analyzer is the package's dispatcher; its classification cache is shared
// by every Problem.
var analyzer = dispatch.NewAnalyzer(0, 0)

// Solve decides the problem with the chosen strategy.
func (p *Problem) Solve(opts Options) Result {
	out := analyzer.Run(context.Background(), p.inst, opts.Strategy, 0)
	return Result{Satisfiable: out.Found, Assignment: out.Solution, Route: out.Route, Stats: out.Stats}
}

// Explain reports which route dispatch.Auto takes and why.
func (p *Problem) Explain() string {
	cls, _ := analyzer.Classify(p.inst)
	switch cls.Class {
	case dispatch.Tree:
		return "tree-structured binary instance: backtrack-free directional arc consistency (Freuder)"
	case dispatch.Schaefer:
		return "boolean template in a tractable Schaefer class: dedicated polynomial solver"
	case dispatch.Acyclic:
		return "alpha-acyclic constraint hypergraph (GYO): Yannakakis full reducer"
	case dispatch.BoundedWidth:
		return fmt.Sprintf("primal-graph tree decomposition of width %d <= %d (bounded treewidth): decomposition DP (Theorem 6.2)",
			cls.Width, analyzer.WidthBudget)
	}
	return fmt.Sprintf("no tree, Schaefer, acyclic or treewidth <= %d witness, domain size %d: portfolio search",
		analyzer.WidthBudget, p.inst.Dom)
}

// Homomorphism finds a homomorphism a → b (nil, false when none exists).
func Homomorphism(a, b *structure.Structure) ([]int, bool, error) {
	p, err := FromStructures(a, b)
	if err != nil {
		return nil, false, err
	}
	res := p.Solve(Options{})
	return res.Assignment, res.Satisfiable, nil
}

// Contains decides conjunctive-query containment Q1 ⊆ Q2 (Chandra–Merlin).
func Contains(q1, q2 *cq.Query) (bool, error) {
	return cq.Contains(q1, q2)
}

// MinimizeQuery returns the core of a conjunctive query (the unique minimal
// equivalent query).
func MinimizeQuery(q *cq.Query) (*cq.Query, error) {
	return cq.Minimize(q)
}

// Count returns the exact number of solutions, computed by dynamic
// programming over a tree decomposition — polynomial for bounded treewidth
// (the counting extension of Theorem 6.2).
func (p *Problem) Count() (*big.Int, error) {
	return treewidth.Count(p.inst)
}
