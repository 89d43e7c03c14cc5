package dispatch

import (
	"context"
	"fmt"
	"net/url"
	"strconv"

	"csdb/internal/csp"
)

// Strategy names one entry of the solver table: Auto, the structure-first
// route of Solve, or one of the engines the Hard route can run directly. It
// is the single strategy vocabulary shared by csolve's -strategy flag,
// cspd's strategy= and route= parameters, cspr's wide events and
// core.Options; Run is the only place a Strategy becomes an engine call.
type Strategy uint8

const (
	// Auto classifies the instance and runs the matching polynomial solver;
	// only Hard instances reach the portfolio.
	Auto Strategy = iota
	// Portfolio races the MAC, FC, CBJ, learning and join lanes.
	Portfolio
	// Parallel splits the root variable's domain across a worker pool.
	Parallel
	// Learn is the restart/nogood learning engine (single-threaded).
	Learn
	// MAC is backtracking search maintaining arc consistency.
	MAC
	// FC is backtracking search with forward checking.
	FC
	// BT is plain chronological backtracking.
	BT
	// CBJ is conflict-directed backjumping.
	CBJ
	// Join evaluates the natural join of the constraint relations
	// (Proposition 2.1).
	Join

	numStrategies
)

// strategyNames is the closed table of accepted names, indexed by Strategy.
var strategyNames = [numStrategies]string{
	"auto", "portfolio", "parallel", "learn", "mac", "fc", "bt", "cbj", "join",
}

func (s Strategy) String() string {
	if s < numStrategies {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies returns every table entry, in table order.
func Strategies() []Strategy {
	out := make([]Strategy, numStrategies)
	for i := range out {
		out[i] = Strategy(i)
	}
	return out
}

// ParseStrategy looks one name up in the table.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return Auto, fmt.Errorf("unknown strategy %s", strconv.Quote(name))
}

// Parse resolves a request's strategy name, its route alias and its worker
// bound into one table entry. Neither name given selects Portfolio, the
// daemon's default. route is the dispatcher surface: auto turns structural
// routing on, portfolio pins the generic engine, and a strategy that
// disagrees with it is rejected rather than silently overridden. A worker
// bound is rejected with Learn: the learning engine is single-threaded, so
// the bound asks for a different engine rather than tuning this one.
func Parse(strategy, route string, workers int) (Strategy, error) {
	s := Portfolio
	if strategy != "" {
		var err error
		if s, err = ParseStrategy(strategy); err != nil {
			return s, err
		}
	}
	if route != "" {
		if route != "auto" && route != "portfolio" {
			return s, fmt.Errorf("bad route %s (want auto or portfolio)", strconv.Quote(route))
		}
		if strategy != "" && strategy != route {
			return s, fmt.Errorf("conflicting strategy=%s and route=%s", strategy, route)
		}
		s, _ = ParseStrategy(route)
	}
	if workers > 0 && s == Learn {
		return s, fmt.Errorf("conflicting workers=%d with strategy=learn", workers)
	}
	return s, nil
}

// ParseQuery is Parse over a /solve query string: the strategy=, route=
// and workers= parameters. It returns the entry and the worker bound.
func ParseQuery(q url.Values) (Strategy, int, error) {
	workers := 0
	if ws := q.Get("workers"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil || n < 0 {
			return Portfolio, 0, fmt.Errorf("bad workers %s", strconv.Quote(ws))
		}
		workers = n
	}
	s, err := Parse(q.Get("strategy"), q.Get("route"), workers)
	return s, workers, err
}

// StrategyLabel maps a strategy name onto its closed metric label set: the
// table's names, "none" for a request rejected before it named one, and
// "other" as the safety net. Every case returns its own literal rather than
// echoing the input, so csplint's obslabel analyzer can prove the set is
// closed; TestStrategyLabelClosed pins the cases to the table.
func StrategyLabel(name string) string {
	switch name {
	case "auto":
		return "auto"
	case "portfolio":
		return "portfolio"
	case "parallel":
		return "parallel"
	case "learn":
		return "learn"
	case "mac":
		return "mac"
	case "fc":
		return "fc"
	case "bt":
		return "bt"
	case "cbj":
		return "cbj"
	case "join":
		return "join"
	case "":
		return "none"
	}
	return "other"
}

// Run solves p with one table entry. workers bounds Parallel's pool (0 =
// GOMAXPROCS) and is ignored by the other entries. Every engine honours
// ctx; Auto's polynomial routes run to completion. Outside Auto, Route is
// Hard: a named engine is the generic search the Hard class routes to.
func (a *Analyzer) Run(ctx context.Context, p *csp.Instance, s Strategy, workers int) Outcome {
	var res csp.Result
	switch s {
	case Auto:
		return a.Solve(ctx, p)
	case Portfolio:
		pr := csp.Portfolio(ctx, p, csp.PortfolioOptions{})
		return Outcome{Result: pr.Result, Route: Hard, Winner: pr.Winner}
	case Parallel:
		pr := csp.SolveParallel(ctx, p, csp.ParallelOptions{Workers: workers})
		return Outcome{Result: pr.Result, Route: Hard, Subtrees: pr.Subtrees}
	case Learn:
		res = csp.SolveCtx(ctx, p, csp.Options{Learn: true})
	case MAC:
		res = csp.SolveCtx(ctx, p, csp.Options{})
	case FC:
		res = csp.SolveCtx(ctx, p, csp.Options{Algorithm: csp.FC})
	case BT:
		res = csp.SolveCtx(ctx, p, csp.Options{Algorithm: csp.BT})
	case CBJ:
		res = csp.SolveCBJCtx(ctx, p, csp.Options{})
	case Join:
		res = csp.JoinSolveCtx(ctx, p)
	default:
		panic("dispatch: strategy outside the table: " + s.String())
	}
	return Outcome{Result: res, Route: Hard}
}
