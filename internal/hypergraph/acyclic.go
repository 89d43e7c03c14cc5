package hypergraph

import (
	"fmt"
	"time"

	"csdb/internal/csp"
	"csdb/internal/obs"
)

// This file lifts Yannakakis' algorithm from conjunctive queries to CSP
// instances: an α-acyclic instance is decided (and a solution extracted)
// in time polynomial in the instance size, per the acyclic-joins line of
// Section 6. The full reducer makes the constraint tables globally
// consistent along a join tree, after which a root-first pass assigns each
// hyperedge a tuple backtrack-free.

// Observability handles for the acyclic CSP solver:
//
//	acyclic.solves        SolveAcyclicCSP calls that ran the reducer
//	acyclic.semijoins     semijoin steps across the up+down passes
//	acyclic.rows_loaded   constraint rows entering the reducer
//	acyclic.rows_reduced  rows surviving the full reducer
var (
	obsAcySolves      = obs.NewCounter("acyclic.solves")
	obsAcySemijoins   = obs.NewCounter("acyclic.semijoins")
	obsAcyRowsLoaded  = obs.NewCounter("acyclic.rows_loaded")
	obsAcyRowsReduced = obs.NewCounter("acyclic.rows_reduced")
)

// SolveAcyclicCSP decides an α-acyclic CSP instance in polynomial time and
// returns a satisfying assignment when one exists. jt may be a join tree
// for the instance's constraint hypergraph (FromInstance ordering: one
// hyperedge per constraint, in constraint order) — a cached one, say; it is
// always validated against the live instance first, and recomputed by GYO
// when nil or invalid. An instance whose hypergraph is not α-acyclic is
// rejected with an error. The reducer and the extraction are the shared
// join-tree engine, csp.SolveJoinTree, with constraint i as edge i.
func SolveAcyclicCSP(p *csp.Instance, jt *JoinTree) (csp.Result, error) {
	start := time.Now()
	h := FromInstance(p)
	if jt == nil || h.ValidateJoinTree(jt) != nil {
		acyclic, fresh := h.GYO()
		if !acyclic {
			return csp.Result{}, fmt.Errorf("hypergraph: instance is not α-acyclic")
		}
		jt = fresh
	}
	obsAcySolves.Inc()
	res, n, err := csp.SolveJoinTree(p, csp.EdgesOf(p), jt.Parent)
	obsAcySemijoins.Add(n.Semijoins)
	obsAcyRowsLoaded.Add(n.Loaded)
	obsAcyRowsReduced.Add(n.Reduced)
	if err != nil {
		return csp.Result{}, err
	}
	res.Stats.Strategy = "acyclic"
	res.Stats.Duration = time.Since(start)
	return res, nil
}
