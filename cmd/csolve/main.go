// Command csolve solves constraint-satisfaction problems from the command
// line. It reads either the library's instance text format or a DIMACS
// coloring graph, runs one entry of the shared solver table
// (internal/dispatch), and prints a solution or UNSAT.
//
// Usage:
//
//	csolve [-strategy auto|portfolio|parallel|learn|mac|fc|bt|cbj|join]
//	       [-width k] [-workers n] [-timeout d] [-explain]
//	       [-trace out.jsonl] [-events out.jsonl] instance.csp
//	csolve -coloring k graph.col
//	csolve -all max instance.csp
//	csolve -count instance.csp
//
// With no file argument the instance is read from standard input.
// -strategy takes the names cspd's strategy= parameter accepts. The
// default, auto, classifies the instance's structure (tree / schaefer /
// acyclic / bounded width, -width setting the width budget) and routes it
// to the matching polynomial solver, falling back to the portfolio only for
// hard instances; its summary line reports the chosen route and the
// classification time. portfolio races the MAC, FC, CBJ, learning and join
// solvers and reports the winner; parallel splits the root domain across
// -workers workers; learn runs the restart/nogood learning engine; mac, fc,
// bt, cbj and join run one engine. -timeout bounds the solve wall clock
// for every strategy (the search reports UNKNOWN when it expires). -all
// enumerates solutions by search and -count counts them by decomposition
// DP, whatever the strategy. -trace turns on structured span tracing for
// the solve and writes the drained spans as JSON lines (the same schema
// cspd's /trace endpoint serves) to the given file. -events writes the
// solve's canonical wide event — route, verdict, effort counters, wall
// clock — as one JSON line in the schema cspd's /events endpoint serves;
// its trace_id matches the -trace root span.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"csdb/internal/core"
	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
	"csdb/internal/gen"
	"csdb/internal/obs"
)

// config carries the parsed command-line options.
type config struct {
	strategy string
	coloring int
	explain  bool
	all      int64
	count    bool
	timeout  time.Duration
	width    int
	workers  int
	trace    string
	events   string
	args     []string
}

func main() {
	strategy := flag.String("strategy", "auto", "solver-table entry: auto, portfolio, parallel, learn, mac, fc, bt, cbj, join")
	coloring := flag.Int("coloring", 0, "treat the input as a DIMACS graph and solve k-coloring")
	explain := flag.Bool("explain", false, "print the auto strategy's routing rationale before solving")
	all := flag.Int64("all", 0, "enumerate up to this many solutions by search")
	count := flag.Bool("count", false, "count solutions exactly via decomposition DP")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for solving (0 = none)")
	width := flag.Int("width", 0, "width budget for auto's bounded-treewidth route (0 = default)")
	workers := flag.Int("workers", 0, "worker-pool size for the parallel strategy (0 = GOMAXPROCS)")
	trace := flag.String("trace", "", "write the solve's span trace to this file as JSON lines")
	events := flag.String("events", "", "write the solve's wide event to this file as a JSON line")
	flag.Parse()

	cfg := config{
		strategy: *strategy, coloring: *coloring, explain: *explain,
		all: *all, count: *count, timeout: *timeout,
		width: *width, workers: *workers,
		trace: *trace, events: *events, args: flag.Args(),
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "csolve:", err)
		os.Exit(2)
	}
}

// run solves one instance as configured and writes the answer to w.
func run(w io.Writer, cfg config) (err error) {
	in := os.Stdin
	if len(cfg.args) > 1 {
		return fmt.Errorf("at most one input file expected")
	}
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", cfg.timeout)
	}
	if len(cfg.args) == 1 {
		f, err := os.Open(cfg.args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	var inst *csp.Instance
	if cfg.coloring > 0 {
		g, err := cspio.ParseDIMACS(in)
		if err != nil {
			return err
		}
		inst = gen.Coloring(g, cfg.coloring)
	} else {
		var err error
		inst, err = cspio.Parse(in)
		if err != nil {
			return err
		}
	}

	strategy, err := dispatch.Parse(cfg.strategy, "", cfg.workers)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// The wide event summarizes this solve in one JSONL record, in the same
	// schema cspd's /events endpoint serves. Its trace ID matches the root
	// span -trace writes, so the two files cross-link.
	ev := &obs.SolveEvent{TraceID: "csolve-1", Source: "csolve"}
	if cfg.events != "" {
		obs.SetEvents(true)
		obs.DefaultEvents().Drain()
		defer func() {
			ev.TsNs = time.Now().UnixNano()
			if err != nil && ev.Verdict == "" {
				ev.Verdict, ev.Cause = obs.VerdictError, err.Error()
			}
			obs.Emit(*ev)
			if werr := writeEvents(cfg.events); werr != nil && err == nil {
				err = fmt.Errorf("writing events: %w", werr)
			}
		}()
	}
	if cfg.trace != "" {
		// The trace flag turns the library's observability on for this
		// process and parents the whole solve under one root span, so the
		// written JSONL nests exactly like cspd's /trace output.
		obs.SetEnabled(true)
		obs.SetTracing(true)
		obs.DefaultTracer().Drain()
		root := obs.StartRoot("csolve", "csolve-1")
		ctx = obs.WithSpan(ctx, root)
		defer func() {
			root.End()
			if werr := writeTrace(cfg.trace); werr != nil && err == nil {
				err = fmt.Errorf("writing trace: %w", werr)
			}
		}()
	}

	problem := core.FromCSP(inst)
	if cfg.explain {
		fmt.Fprintln(w, "strategy:", problem.Explain())
	}

	if cfg.count {
		n, err := problem.Count()
		if err != nil {
			return err
		}
		ev.Strategy = "count"
		ev.Verdict = obs.Verdict(n.Sign() > 0, false)
		fmt.Fprintf(w, "%v solution(s)\n", n)
		return nil
	}

	if cfg.all > 0 {
		count, _ := csp.SolveAllCtx(ctx, inst, csp.Options{}, cfg.all, func(sol []int) bool {
			fmt.Fprintln(w, formatSolution(inst, sol))
			return true
		})
		ev.Strategy = "enumerate"
		ev.Verdict = obs.Verdict(count > 0, false)
		fmt.Fprintf(w, "%d solution(s)\n", count)
		return nil
	}

	out := dispatch.NewAnalyzer(cfg.width, 0).Run(ctx, inst, strategy, cfg.workers)
	ev.Strategy = strategy.String()
	if strategy == dispatch.Auto {
		ev.Route = out.Route.String()
	}
	ev.Winner = out.Winner
	ev.Verdict = obs.Verdict(out.Found, out.Aborted)
	fillEventStats(ev, out.Stats)
	switch {
	case out.Found:
		fmt.Fprintf(w, "SAT (%s)\n", detail(strategy, out))
		fmt.Fprintln(w, formatSolution(inst, out.Solution))
	case out.Aborted:
		fmt.Fprintf(w, "UNKNOWN (%s)\n", detail(strategy, out))
	default:
		fmt.Fprintf(w, "UNSAT (%s)\n", detail(strategy, out))
	}
	return nil
}

func formatSolution(inst *csp.Instance, sol []int) string {
	parts := make([]string, len(sol))
	for v, val := range sol {
		parts[v] = fmt.Sprintf("%s=%d", inst.VarName(v), val)
	}
	return strings.Join(parts, " ")
}

// fillEventStats copies the engine effort counters into the wide event.
func fillEventStats(ev *obs.SolveEvent, st csp.Stats) {
	ev.WallNs = st.Duration.Nanoseconds()
	ev.Nodes = st.Nodes
	ev.Backtracks = st.Backtracks
	ev.Restarts = st.Restarts
	ev.Nogoods = st.NogoodsRecorded
}

// writeEvents drains the default event ring into a JSONL file (one line:
// this process's solve).
func writeEvents(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, obs.DefaultEvents().Drain()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace drains the default tracer's ring into a JSONL file.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, obs.DefaultTracer().Drain()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// detail renders the summary line's parenthesis. It always names the
// strategy that ran and ends with the search effort and the wall clock. For
// auto it adds the route the verdict came from and the classification time;
// for the single engines, the engine label. A portfolio winner and a
// parallel split are named when there is one, and the learning engine's
// restart and nogood counters when it recorded any.
func detail(s dispatch.Strategy, out dispatch.Outcome) string {
	var b strings.Builder
	b.WriteString(s.String())
	st := out.Stats
	if s == dispatch.Auto {
		fmt.Fprintf(&b, ", route=%v, classify %v", out.Route, out.ClassifyTime.Round(time.Microsecond))
	} else if st.Strategy != "" && out.Winner == "" {
		fmt.Fprintf(&b, " [%s]", st.Strategy)
	}
	if out.Winner != "" {
		fmt.Fprintf(&b, ", portfolio winner %s", out.Winner)
	}
	if out.Subtrees > 0 {
		fmt.Fprintf(&b, ", %d subtrees", out.Subtrees)
	}
	fmt.Fprintf(&b, ", %d nodes, depth %d", st.Nodes, st.MaxDepth)
	if st.Restarts > 0 || st.NogoodsRecorded > 0 {
		fmt.Fprintf(&b, ", %d restarts, %d nogoods (%d hits)", st.Restarts, st.NogoodsRecorded, st.NogoodHits)
	}
	fmt.Fprintf(&b, ", %v", st.Duration.Round(time.Microsecond))
	return b.String()
}
