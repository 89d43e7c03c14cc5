package csp

import (
	"context"
	"time"

	"csdb/internal/obs"
)

// This file implements a portfolio solver. The paper's recurring point
// (Proposition 2.1, Theorem 5.7, Section 6) is that the same instance can be
// decided by several interchangeable complete procedures — backtracking
// search with propagation, conflict-directed backjumping, and join
// evaluation — and no single one dominates across instance classes. A
// portfolio races them concurrently under one context and returns the first
// definitive verdict, cancelling the losers.

// PortfolioStrategy is one competitor in a portfolio: a named complete
// decision procedure. Run must honor ctx (returning Aborted=true once it is
// cancelled) and must treat opts.NodeLimit as its own private budget.
type PortfolioStrategy struct {
	Name string
	Run  func(ctx context.Context, p *Instance, opts Options) Result
}

// DefaultStrategies returns the standard portfolio: MAC+MRV search, FC+Lex
// search, conflict-directed backjumping, the restart/nogood learning engine,
// and join evaluation per Proposition 2.1. Racing learning against plain
// MAC costs one goroutine and lets whichever propagation style fits the
// instance (systematic vs conflict-directed) deliver the verdict; the
// dispatcher's Hard route inherits the race automatically.
func DefaultStrategies() []PortfolioStrategy {
	return []PortfolioStrategy{
		{Name: "MAC+MRV", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			opts.Algorithm, opts.VarOrder = MAC, MRV
			return SolveCtx(ctx, p, opts)
		}},
		{Name: "FC+Lex", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			opts.Algorithm, opts.VarOrder = FC, Lex
			return SolveCtx(ctx, p, opts)
		}},
		{Name: "CBJ", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			return SolveCBJCtx(ctx, p, opts)
		}},
		{Name: "Learn", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			opts.Learn, opts.VarOrder = true, MRV
			return SolveCtx(ctx, p, opts)
		}},
		{Name: "Join", Run: func(ctx context.Context, p *Instance, _ Options) Result {
			return JoinSolveCtx(ctx, p)
		}},
	}
}

// PortfolioOptions configures a Portfolio call.
type PortfolioOptions struct {
	// Strategies to race; nil means DefaultStrategies().
	Strategies []PortfolioStrategy
	// Options is the base configuration handed to every strategy. Its
	// NodeLimit applies per strategy: each competitor counts its own nodes
	// against the limit, so one strategy hitting the limit does not abort
	// (or poison) the others.
	Options Options
}

// StrategyReport is the per-strategy attribution in a PortfolioResult.
type StrategyReport struct {
	Name  string
	Stats Stats
	// Found and Aborted mirror the strategy's own Result. A losing strategy
	// typically shows Aborted=true because the winner cancelled it.
	Found   bool
	Aborted bool
	// Cancelled marks strategies whose abort was caused by losing the race
	// (the winner's cancellation), as opposed to their own node limit.
	Cancelled bool
}

// PortfolioResult is the outcome of a portfolio race: the winning verdict,
// which strategy produced it, the per-strategy reports, and the merged
// effort counters across all competitors.
type PortfolioResult struct {
	Result
	// Winner is the name of the strategy whose verdict was adopted; empty
	// when no strategy reached a verdict (all aborted or cancelled).
	Winner  string
	Reports []StrategyReport
	// Total sums the search effort across every strategy (nodes, backtracks
	// and prunings are additive; MaxDepth is the maximum). Its Duration is
	// the wall clock of the whole race.
	Total Stats
}

// Portfolio races the configured strategies on goroutines and returns the
// first definitive verdict — Found (with a solution) or a completed
// unsatisfiability proof — cancelling the remaining strategies. All
// strategies are waited for before returning, so Portfolio leaks no
// goroutines. When every strategy aborts (node limits, or ctx cancelled
// before any verdict), the result has Aborted=true.
func Portfolio(ctx context.Context, p *Instance, popts PortfolioOptions) PortfolioResult {
	start := time.Now()
	strategies := popts.Strategies
	if len(strategies) == 0 {
		strategies = DefaultStrategies()
	}
	obsPortfolioRaces.Inc()
	ctx, raceSpan := obs.StartSpan(ctx, "csp.portfolio")
	raceSpan.SetInt("strategies", int64(len(strategies)))
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type verdict struct {
		idx int
		res Result
	}
	done := make(chan verdict, len(strategies))
	for i, st := range strategies {
		go func(i int, st PortfolioStrategy) {
			sp := obs.StartChild(raceSpan, "csp.strategy")
			sp.SetStr("name", st.Name)
			res := st.Run(obs.WithSpan(raceCtx, sp), p, popts.Options)
			sp.SetInt("nodes", res.Stats.Nodes)
			if res.Found {
				sp.SetInt("found", 1)
			}
			if res.Aborted {
				sp.SetInt("aborted", 1)
			}
			sp.End()
			done <- verdict{i, res}
		}(i, st)
	}

	out := PortfolioResult{Reports: make([]StrategyReport, len(strategies))}
	winner := -1
	for n := 0; n < len(strategies); n++ {
		v := <-done
		rep := StrategyReport{
			Name:    strategies[v.idx].Name,
			Stats:   v.res.Stats,
			Found:   v.res.Found,
			Aborted: v.res.Aborted,
		}
		if v.res.Aborted && winner >= 0 {
			rep.Cancelled = true
		}
		if winner < 0 && !v.res.Aborted {
			winner = v.idx
			out.Result = v.res
			out.Winner = strategies[v.idx].Name
			cancel() // stop the losers
		}
		out.Reports[v.idx] = rep
		out.Total.merge(v.res.Stats)
	}
	if winner < 0 {
		out.Result = Result{Aborted: true, Stats: out.Total}
	}
	for i := range out.Reports {
		recordLaneOutcome(out.Reports[i].Name, i == winner)
	}
	out.Total.Duration = time.Since(start)
	out.Result.Stats.Duration = out.Total.Duration
	raceSpan.SetStr("winner", out.Winner)
	raceSpan.SetInt("total_nodes", out.Total.Nodes)
	raceSpan.End()
	return out
}
